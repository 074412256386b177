package pipeline

import (
	"context"
	"sync/atomic"
	"time"
)

// PlacementExec is the non-generic control surface of a
// placement-switchable executor. MapExec detects it on the executor it
// is given and wires the stage's metrics block to it, which is what
// lets the balancer flip a stage between local and remote execution
// through Pipeline.SetStagePlacement without knowing the stage's
// types.
type PlacementExec interface {
	// Remote reports which side new frames are dispatched to.
	Remote() bool
	// SetRemote picks the side for subsequent frames. Frames already
	// in flight finish where they started — a flip is always a frame
	// boundary.
	SetRemote(bool)
	// SideEWMA returns the smoothed per-frame service time observed on
	// each side (zero until a side has run a frame).
	SideEWMA() (local, remote time.Duration)
	// Fallbacks counts remote failures that were served by the local
	// side instead.
	Fallbacks() uint64
}

// SwitchExec routes each Apply to one of two executors computing the
// same function — an in-process local side and a fleet-backed remote
// side — under a flag the balancer owns. Because both sides are
// bit-identical by contract and the Map machinery re-sequences output,
// a placement flip is invisible in the stream: only latency changes.
//
// A remote failure while the pipeline is still alive falls back to the
// local side for that frame (and is counted), so a degraded WAN path
// costs latency, not the run; the balancer sees the per-side EWMAs and
// flips the stage home when remote service time degrades past its
// threshold.
type SwitchExec[I, O any] struct {
	local, remote StageExecutor[I, O]

	useRemote atomic.Bool
	localNS   atomic.Uint64 // float64 bits EWMA
	remoteNS  atomic.Uint64 // float64 bits EWMA
	flips     atomic.Uint64
	fallbacks atomic.Uint64
}

// NewSwitchExec pairs a local executor with its remote twin, starting
// on the local side. Both must compute the same function; local must
// be non-nil (it is the fallback side).
func NewSwitchExec[I, O any](local, remote StageExecutor[I, O]) *SwitchExec[I, O] {
	return &SwitchExec[I, O]{local: local, remote: remote}
}

// Apply implements StageExecutor: route to the current side, timing it
// into that side's EWMA; on a remote error with the pipeline still
// alive, serve the frame locally instead.
func (s *SwitchExec[I, O]) Apply(ctx context.Context, v I) (O, error) {
	if s.useRemote.Load() && s.remote != nil {
		t0 := nowNanos()
		o, err := s.remote.Apply(ctx, v)
		if err == nil {
			ewmaUpdate(&s.remoteNS, float64(nowNanos()-t0))
			return o, nil
		}
		if ctx.Err() != nil {
			return o, err
		}
		s.fallbacks.Add(1)
	}
	t0 := nowNanos()
	o, err := s.local.Apply(ctx, v)
	if err == nil {
		ewmaUpdate(&s.localNS, float64(nowNanos()-t0))
	}
	return o, err
}

// Remote implements PlacementExec.
func (s *SwitchExec[I, O]) Remote() bool { return s.useRemote.Load() }

// SetRemote implements PlacementExec.
func (s *SwitchExec[I, O]) SetRemote(remote bool) {
	if s.remote == nil {
		remote = false
	}
	if s.useRemote.Swap(remote) != remote {
		s.flips.Add(1)
	}
}

// SideEWMA implements PlacementExec.
func (s *SwitchExec[I, O]) SideEWMA() (local, remote time.Duration) {
	return ewmaDuration(&s.localNS), ewmaDuration(&s.remoteNS)
}

// Fallbacks implements PlacementExec.
func (s *SwitchExec[I, O]) Fallbacks() uint64 { return s.fallbacks.Load() }
