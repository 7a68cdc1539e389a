// The thin client: submit a request, honor the server's backpressure,
// poll until terminal, and fetch the result bytes. hicsim uses it for
// its -server mode, which must emit exactly the bytes a local -json run
// would.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a hicserve instance.
type Client struct {
	// BaseURL is the server root ("http://host:port").
	BaseURL string
	// Tenant is sent as the X-Hic-Tenant header when non-empty.
	Tenant string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// PollInterval is the status poll cadence (default 50ms).
	PollInterval time.Duration
}

// StatusError is a non-2xx server reply.
type StatusError struct {
	Code int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's backpressure hint (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// do performs one request and returns the reply body. Non-2xx replies
// come back as *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode}
		var er errorReply
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			se.Message = er.Error
		} else {
			se.Message = strings.TrimSpace(string(data))
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, se
	}
	return data, nil
}

// Submit posts the request once. A 429 comes back as *StatusError with
// RetryAfter set; Run wraps Submit with the retry loop.
func (c *Client) Submit(ctx context.Context, req Request) (SubmitReply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitReply{}, err
	}
	data, err := c.do(ctx, http.MethodPost, "/v2/sweeps", body)
	if err != nil {
		return SubmitReply{}, err
	}
	var reply SubmitReply
	return reply, json.Unmarshal(data, &reply)
}

// Status fetches a job's state.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	data, err := c.do(ctx, http.MethodGet, "/v2/sweeps/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	var st Status
	return st, json.Unmarshal(data, &st)
}

// Result fetches a finished job's document bytes, verbatim.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v2/sweeps/"+id+"/result", nil)
}

// Wait polls until the job is terminal and returns its final status.
func (c *Client) Wait(ctx context.Context, id string) (Status, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State == JobDone || st.State == JobFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Run is the whole thin-client flow: submit (sleeping out 429
// backpressure per the server's Retry-After hint), wait unless the
// submit reply is already done, and fetch the result. A failed job
// returns its error text.
func (c *Client) Run(ctx context.Context, req Request) ([]byte, error) {
	var reply SubmitReply
	for {
		var err error
		reply, err = c.Submit(ctx, req)
		if err == nil {
			break
		}
		var se *StatusError
		if !isBusy(err, &se) {
			return nil, err
		}
		delay := se.RetryAfter
		if delay <= 0 {
			delay = time.Second
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last refusal: %v)", ctx.Err(), se)
		case <-time.After(delay):
		}
	}
	if reply.State != JobDone {
		st, err := c.Wait(ctx, reply.ID)
		if err != nil {
			return nil, err
		}
		if st.State == JobFailed {
			return nil, fmt.Errorf("sweep %s failed: %s", reply.ID, st.Error)
		}
	}
	return c.Result(ctx, reply.ID)
}

// isBusy reports whether err is a 429 refusal, extracting it into se.
func isBusy(err error, se **StatusError) bool {
	s, ok := err.(*StatusError)
	if !ok || s.Code != http.StatusTooManyRequests {
		return false
	}
	*se = s
	return true
}
