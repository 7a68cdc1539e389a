package engine

// RunqCounts returns how many insertions the ring queues of all
// finished runs have made, and how many of them went to the overflow
// heap.
func RunqCounts() (pushes, spills int64) { return runqPushes.Load(), runqSpills.Load() }
