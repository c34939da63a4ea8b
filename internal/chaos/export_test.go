package chaos

// Events returns a copy of every injected fault so far, in injection order.
func (t *Transport) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}
