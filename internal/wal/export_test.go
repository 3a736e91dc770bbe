package wal

// Segments returns the current segment count.
func (m *Manager) Segments() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.segs)
}
