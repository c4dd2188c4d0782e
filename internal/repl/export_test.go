package repl

// Applied returns how many records this process has applied.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Promoted reports whether the node has been promoted to leader.
func (f *Follower) Promoted() bool {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	return f.promoted
}
