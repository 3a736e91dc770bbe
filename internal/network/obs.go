package network

import "batchdb/internal/obs"

// Register exposes the transport counters through reg as registry
// views.
func (s *Stats) Register(reg *obs.Registry, labels ...obs.Label) {
	with := func(extra ...obs.Label) []obs.Label {
		return append(append([]obs.Label(nil), labels...), extra...)
	}
	// Every frame takes one path now; the path label stays until the
	// benchmark stops reading it (ROADMAP 1A(j)).
	reg.ObserveCounter("batchdb_net_msgs_total",
		"Frames sent.", &s.Msgs, with(obs.L("path", "eager"))...)
	reg.ObserveCounter("batchdb_net_bytes_total",
		"Payload bytes by direction.", &s.BytesSent, with(obs.L("dir", "sent"))...)
	reg.ObserveCounter("batchdb_net_bytes_total",
		"Payload bytes by direction.", &s.BytesReceived, with(obs.L("dir", "received"))...)
	reg.ObserveCounter("batchdb_net_buffers_total",
		"Frame buffers by origin.", &s.BuffersReused, with(obs.L("origin", "reused"))...)
	reg.ObserveCounter("batchdb_net_buffers_total",
		"Frame buffers by origin.", &s.BuffersAlloced, with(obs.L("origin", "alloced"))...)
	reg.ObserveCounter("batchdb_net_dial_retries_total",
		"Dial attempts beyond each first try.", &s.Retries, labels...)
	reg.ObserveCounter("batchdb_net_severed_total",
		"Connections that transitioned to failed.", &s.Severed, labels...)
}
