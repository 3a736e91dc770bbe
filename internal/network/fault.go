package network

import (
	"errors"
	"sync/atomic"
	"time"
)

// FaultDir distinguishes the two directions a FaultPolicy observes on
// one connection.
type FaultDir uint8

const (
	// FaultSend frames are about to be written by this side.
	FaultSend FaultDir = iota
	// FaultRecv frames were just read from the peer.
	FaultRecv
)

// FaultAction is a FaultPolicy's verdict for one frame.
type FaultAction uint8

const (
	// FaultPass lets the frame through untouched.
	FaultPass FaultAction = iota
	// FaultDrop swallows the frame: a sent frame is reported as
	// delivered without touching the wire; a received frame is discarded
	// before dispatch.
	FaultDrop
	// FaultSever fails the connection at this frame boundary.
	FaultSever
)

// errInjectedSever marks a connection failed by a FaultPolicy.
var errInjectedSever = errors.New("network: connection severed by fault policy")

// IsInjectedFault reports whether err originated from a FaultSever
// verdict, so tests can tell injected failures from organic ones.
func IsInjectedFault(err error) bool { return errors.Is(err, errInjectedSever) }

// FaultPolicy injects deterministic transport faults at frame
// granularity. Frame is consulted once per frame with the application
// message type and the payload length; the returned delay (if any) is
// applied before the action. Implementations must be safe for
// concurrent use: Send may run from many goroutines.
type FaultPolicy interface {
	Frame(dir FaultDir, msgType uint8, payloadLen int) (FaultAction, time.Duration)
}

// FaultFunc adapts a function to a FaultPolicy.
type FaultFunc func(dir FaultDir, msgType uint8, payloadLen int) (FaultAction, time.Duration)

// Frame implements FaultPolicy.
func (f FaultFunc) Frame(dir FaultDir, msgType uint8, payloadLen int) (FaultAction, time.Duration) {
	return f(dir, msgType, payloadLen)
}

// SeverAfter severs the connection when the n-th frame (1-based) in the
// given direction is observed; earlier and later frames pass. Firing
// exactly once lets a reconnecting client recover on its next
// connection even when the policy is reinstalled.
func SeverAfter(dir FaultDir, n int) FaultPolicy {
	var seen atomic.Int64
	return FaultFunc(func(d FaultDir, _ uint8, _ int) (FaultAction, time.Duration) {
		if d != dir {
			return FaultPass, 0
		}
		if seen.Add(1) == int64(n) {
			return FaultSever, 0
		}
		return FaultPass, 0
	})
}

// DelayAll sleeps d before every frame in the given direction — a
// deterministic slow-network model.
func DelayAll(dir FaultDir, d time.Duration) FaultPolicy {
	return FaultFunc(func(dd FaultDir, _ uint8, _ int) (FaultAction, time.Duration) {
		if dd == dir {
			return FaultPass, d
		}
		return FaultPass, 0
	})
}

type faultHolder struct{ p FaultPolicy }

// SetFaultPolicy installs p on the connection; nil removes the current
// policy. Safe to call concurrently with Send/Recv.
func (c *Conn) SetFaultPolicy(p FaultPolicy) {
	if p == nil {
		c.fault.Store(nil)
		return
	}
	c.fault.Store(&faultHolder{p: p})
}

// faultAction consults the installed policy (if any) for one frame and
// applies its delay.
func (c *Conn) faultAction(dir FaultDir, msgType uint8, payloadLen int) FaultAction {
	h := c.fault.Load()
	if h == nil {
		return FaultPass
	}
	act, d := h.p.Frame(dir, msgType, payloadLen)
	if d > 0 {
		time.Sleep(d)
	}
	return act
}
