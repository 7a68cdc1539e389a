// Job lifecycle: a submitted sweep is queued, picked up by a worker,
// and finishes done or failed; a submit whose content address is
// already stored is born done. All job state is guarded by the server's
// mutex — jobs are small and the sweep work itself runs outside the
// lock.

package serve

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued means the job is waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning means a worker is sweeping.
	JobRunning JobState = "running"
	// JobDone means the result bytes are ready.
	JobDone JobState = "done"
	// JobFailed means the sweep failed; Status.Error has the cause.
	JobFailed JobState = "failed"
)

// Job is one submitted sweep.
type Job struct {
	// ID addresses the job ("swp-000001").
	ID string
	// Tenant is the submitter's tenant label.
	Tenant string
	// Req is the normalized request.
	Req Request
	// Key is the request's content address.
	Key string

	// state, result, and progress are guarded by the server's mutex.
	state    JobState
	cacheHit bool
	errText  string
	result   []byte
	cells    []cellStatus
	done     int
}

// cellStatus tracks one simulation cell's progress.
type cellStatus struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	State    string `json:"state"` // "pending" or "done"
}

// Status is the wire form of a job's state (GET /v2/sweeps/{id}).
type Status struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Suite  string   `json:"suite"`
	Scale  string   `json:"scale,omitempty"`
	Tenant string   `json:"tenant"`
	// Cache is "hit" when the result was served from the sweep store
	// without running, "miss" otherwise.
	Cache    string    `json:"cache"`
	Error    string    `json:"error,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
}

// Progress is a simulation job's live per-cell progress, fed by the
// sweep's observability callback. Cells served from the cell-level
// cache jump straight to done when the job completes.
type Progress struct {
	Total int          `json:"total"`
	Done  int          `json:"done"`
	Cells []cellStatus `json:"cells,omitempty"`
}

// newJob builds a job in the queued state with its progress cells
// pre-populated from the request's predicted task list.
func newJob(id, tenant string, req Request, key string) *Job {
	j := &Job{
		ID: id, Tenant: tenant, Req: req, Key: key,
		state: JobQueued,
	}
	for _, wc := range req.cells(req.Workloads) {
		j.cells = append(j.cells, cellStatus{Workload: wc[0], Config: wc[1], State: "pending"})
	}
	return j
}

// status snapshots the job for the wire. Caller holds the server lock.
func (j *Job) status() Status {
	st := Status{
		ID: j.ID, State: j.state,
		Suite: j.Req.Suite, Scale: j.Req.Scale, Tenant: j.Tenant,
		Cache: "miss", Error: j.errText,
	}
	if j.cacheHit {
		st.Cache = "hit"
	}
	if len(j.cells) > 0 {
		p := &Progress{Total: len(j.cells), Done: j.done}
		p.Cells = append(p.Cells, j.cells...)
		st.Progress = p
	}
	return st
}

// markCell records one completed cell. Caller holds the server lock.
func (j *Job) markCell(workload, config string) {
	for i := range j.cells {
		c := &j.cells[i]
		if c.Workload == workload && c.Config == config && c.State != "done" {
			c.State = "done"
			j.done++
			return
		}
	}
}

// finish moves the job to a terminal state. Caller holds the server
// lock.
func (j *Job) finish(state JobState, result []byte, errText string) {
	j.state = state
	j.result = result
	j.errText = errText
	if state == JobDone {
		for i := range j.cells {
			j.cells[i].State = "done"
		}
		j.done = len(j.cells)
	}
}
