package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pipeline"
	"repro/internal/vec"
)

// Fleet manages a set of worker connections hosting one kernel and
// stripes Compute requests across the healthy members: each worker
// carries a bounded in-flight window, each dispatch goes to the
// least-loaded member (so a lagging worker naturally sheds frames to
// faster peers — work stealing falls out of the load rule), and a
// failed attempt is re-dispatched to a surviving member under the
// retry policy. Because retries happen beneath the pipeline stage's
// sequence tagging, a failover is invisible in the output: frames
// arrive complete, in order, and bit-identical to a single-worker or
// local run.
//
// Health is per member. A consecutive run of transient failures
// (EjectAfter) ejects a worker — its connection is torn down and no
// further frames go to it — and a background probe re-dials ejected
// members every ProbeInterval, re-verifying the kernel advertisement
// before letting one back in. Admission is verified up front too:
// NewFleet asks every reachable member for its Kernels and refuses to
// build a fleet containing a mis-provisioned worker. A stream over a
// fleet therefore degrades instead of dying — it fails only when no
// member can serve a frame within the retry policy.
type Fleet struct {
	opts    FleetOptions
	members []*member

	probeDone chan struct{}
	probeWG   sync.WaitGroup

	mu       sync.Mutex
	next     int           // round-robin tiebreak cursor
	slotFree chan struct{} // closed-and-replaced when a slot or member frees up
	closed   bool
}

// WorkerState is a fleet member's health.
type WorkerState int

const (
	// WorkerHealthy members receive dispatches.
	WorkerHealthy WorkerState = iota
	// WorkerEjected members failed EjectAfter consecutive times (or
	// were unreachable at startup); the probe loop tries to bring them
	// back.
	WorkerEjected
	// WorkerRefused members answered a rejoin probe without
	// advertising the fleet's kernel — mis-provisioned, permanently
	// out.
	WorkerRefused
)

func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerEjected:
		return "ejected"
	case WorkerRefused:
		return "refused"
	}
	return fmt.Sprintf("WorkerState(%d)", int(s))
}

// WorkerStats is one member's dispatch ledger, for observability and
// tests.
type WorkerStats struct {
	Addr       string
	State      WorkerState
	InFlight   int   // requests currently on this worker
	Dispatched int64 // total requests sent
	Failures   int64 // total transient failures recorded
	Rejoins    int64 // times the probe brought it back after ejection
}

// FleetOptions configure a Fleet. The zero value of every tunable
// gets a sensible default; only Kernel is required.
type FleetOptions struct {
	// Kernel names the stage kernel every member must host; NewFleet
	// and the rejoin probe verify it against the worker's Kernels
	// advertisement.
	Kernel string

	// Window is the per-worker in-flight cap (default 4). The fleet's
	// total concurrency is Window × healthy members.
	Window int

	// RequestTimeout bounds one Compute attempt (default
	// DefaultRequestTimeout, negative disables): a worker that hangs
	// mid-frame forfeits the frame to a surviving member instead of
	// stalling the stream.
	RequestTimeout time.Duration

	// Retry governs re-dispatch of failed attempts (zero value →
	// pipeline defaults: 3 attempts, exponential backoff with jitter).
	Retry pipeline.RetryPolicy

	// EjectAfter is the consecutive transient-failure count that
	// ejects a member (default 3).
	EjectAfter int

	// ProbeInterval is how often ejected members are re-dialed
	// (default 500ms; negative disables rejoin probing).
	ProbeInterval time.Duration

	// BandwidthBps throttles each member connection's response reads,
	// modeling the wide-area link (<= 0 disables).
	BandwidthBps int64

	// Dial overrides the transport dialer — the seam fault-injection
	// tests use to wrap member connections. nil means TCP with a 5s
	// connect timeout.
	Dial func(addr string) (net.Conn, error)
}

func (o FleetOptions) window() int {
	if o.Window <= 0 {
		return 4
	}
	return o.Window
}

func (o FleetOptions) ejectAfter() int {
	if o.EjectAfter <= 0 {
		return 3
	}
	return o.EjectAfter
}

func (o FleetOptions) dial(addr string) (net.Conn, error) {
	return ClientOptions{Dial: o.Dial}.dial(addr)
}

// member is one worker slot. All mutable fields are guarded by the
// fleet mutex; cli is nil while ejected.
type member struct {
	addr string

	cli        *Client
	state      WorkerState
	inflight   int
	dispatched int64
	failures   int64 // total, for Stats
	streak     int   // consecutive, for ejection
	rejoins    int64
}

// errFleetClosed fails dispatches after Close; it is permanent, so
// retries stop immediately.
var errFleetClosed = errors.New("remote: fleet is closed")

// IsTransient reports whether err is worth re-dispatching to another
// worker: attempt deadlines, transport-level failures (connection
// lost, framing corruption, unexpected responses), and a draining
// worker's ErrCodeUnavailable all are. Application-level WireErrors
// (bad request, unknown kernel, kernel failure) are deterministic —
// every member would answer the same — and context cancellation means
// the caller is gone; neither retries.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, errFleetClosed) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var we *WireError
	if errors.As(err, &we) {
		return we.Code == ErrCodeUnavailable
	}
	return true
}

// NewFleet dials every addr, verifies each reachable worker hosts
// opts.Kernel, and returns the fleet. An unreachable worker starts
// ejected (the probe loop keeps trying to admit it); a reachable
// worker that does not advertise the kernel is a configuration error
// and fails construction. At least one member must be healthy at
// startup — a fleet that cannot serve its first frame fails fast here
// rather than timing out frame by frame.
func NewFleet(addrs []string, opts FleetOptions) (*Fleet, error) {
	if opts.Kernel == "" {
		return nil, errors.New("remote: FleetOptions.Kernel is required")
	}
	if len(addrs) == 0 {
		return nil, errors.New("remote: a fleet needs at least one worker address")
	}
	f := &Fleet{
		opts:      opts,
		probeDone: make(chan struct{}),
		slotFree:  make(chan struct{}),
	}
	var firstErr error
	healthy := 0
	for _, addr := range addrs {
		m := &member{addr: addr, state: WorkerEjected}
		cli, err := f.admit(addr)
		switch {
		case err == nil:
			m.cli = cli
			m.state = WorkerHealthy
			healthy++
		case errors.Is(err, errMisprovisioned):
			for _, prev := range f.members {
				if prev.cli != nil {
					prev.cli.Close()
				}
			}
			return nil, fmt.Errorf("remote: worker %s does not host kernel %q", addr, opts.Kernel)
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
		f.members = append(f.members, m)
	}
	if healthy == 0 {
		return nil, fmt.Errorf("remote: no reachable worker in fleet %v: %w", addrs, firstErr)
	}
	if iv := orDefault(opts.ProbeInterval, 500*time.Millisecond); iv > 0 {
		f.probeWG.Add(1)
		go f.probeLoop(iv)
	}
	return f, nil
}

var errMisprovisioned = errors.New("remote: kernel not advertised")

// admit dials addr, runs the handshake, and verifies the kernel
// advertisement. Returns errMisprovisioned (with the client closed)
// when the worker answers but does not host the fleet's kernel.
func (f *Fleet) admit(addr string) (*Client, error) {
	conn, err := f.opts.dial(addr)
	if err != nil {
		return nil, err
	}
	cli, err := NewClientConn(conn, ClientOptions{RequestTimeout: f.opts.RequestTimeout})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	names, err := cli.Kernels(ctx)
	cancel()
	if err != nil {
		cli.Close()
		return nil, err
	}
	for _, name := range names {
		if name == f.opts.Kernel {
			if f.opts.BandwidthBps > 0 {
				cli.SetBandwidth(f.opts.BandwidthBps)
			}
			return cli, nil
		}
	}
	cli.Close()
	return nil, errMisprovisioned
}

// Close tears the fleet down: the probe loop stops, every member
// connection closes, and waiting dispatchers fail with a permanent
// error.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.probeDone)
	var clients []*Client
	for _, m := range f.members {
		if m.cli != nil {
			clients = append(clients, m.cli)
			m.cli = nil
		}
		m.state = WorkerEjected
	}
	f.wakeLocked()
	f.mu.Unlock()
	f.probeWG.Wait()
	var firstErr error
	for _, cli := range clients {
		if err := cli.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats snapshots every member's ledger, in the order the addresses
// were given to NewFleet.
func (f *Fleet) Stats() []WorkerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerStats, len(f.members))
	for i, m := range f.members {
		out[i] = WorkerStats{
			Addr:       m.addr,
			State:      m.state,
			InFlight:   m.inflight,
			Dispatched: m.dispatched,
			Failures:   m.failures,
			Rejoins:    m.rejoins,
		}
	}
	return out
}

// wakeLocked signals every dispatcher parked on a full fleet that the
// slot picture changed. Close-and-replace broadcast: cheap when
// nobody waits, wakes everybody when the topology shifts.
func (f *Fleet) wakeLocked() {
	close(f.slotFree)
	f.slotFree = make(chan struct{})
}

// errNoWorkers is the transient attempt error for a fleet whose
// members are all ejected: the retry policy spends its backoff on it
// (a probe may readmit someone in the meantime) and the stream fails
// with it once the policy is exhausted.
var errNoWorkers = errors.New("remote: no healthy fleet member")

// acquire claims a dispatch slot on the least-loaded healthy member
// (round-robin among ties) and returns the member with its client
// pinned. It blocks while every healthy member's window is full —
// that backpressure is what stripes a stream across the fleet — but
// fails immediately (transiently) when no member is healthy at all,
// so "all workers down" is spent against the retry policy instead of
// parking the dispatcher until the stream's context dies.
func (f *Fleet) acquire(ctx context.Context) (*member, *Client, error) {
	for {
		// A dead context dispatches nothing: without this an expired
		// request raced its own reply in the client's select.
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return nil, nil, errFleetClosed
		}
		n := len(f.members)
		anyHealthy := false
		var best *member
		for i := 0; i < n; i++ {
			m := f.members[(f.next+i)%n]
			if m.state != WorkerHealthy {
				continue
			}
			anyHealthy = true
			if m.inflight >= f.opts.window() {
				continue
			}
			if best == nil || m.inflight < best.inflight {
				best = m
			}
		}
		if !anyHealthy {
			f.mu.Unlock()
			return nil, nil, errNoWorkers
		}
		if best != nil {
			f.next = (f.next + 1) % n
			best.inflight++
			best.dispatched++
			cli := best.cli
			f.mu.Unlock()
			return best, cli, nil
		}
		wait := f.slotFree
		f.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// release returns m's slot and settles the health ledger: success (or
// a deterministic application error) clears the failure streak; a
// transient failure extends it, and a streak of EjectAfter ejects the
// member and severs its connection.
func (f *Fleet) release(m *member, err error) {
	var closeCli *Client
	f.mu.Lock()
	m.inflight--
	switch {
	case err == nil, !IsTransient(err):
		m.streak = 0
	default:
		m.failures++
		m.streak++
		if m.streak >= f.opts.ejectAfter() && m.state == WorkerHealthy {
			m.state = WorkerEjected
			closeCli = m.cli
			m.cli = nil
		}
	}
	f.wakeLocked()
	f.mu.Unlock()
	if closeCli != nil {
		closeCli.Close()
	}
}

// computeOnce runs one attempt: claim a slot, ship the kernel call —
// bounded by the member client's RequestTimeout, which admit set from
// FleetOptions.RequestTimeout — and settle health.
func (f *Fleet) computeOnce(ctx context.Context, req []byte) ([]byte, error) {
	m, cli, err := f.acquire(ctx)
	if err != nil {
		return nil, err
	}
	out, err := cli.Compute(ctx, f.opts.Kernel, req)
	f.release(m, err)
	return out, err
}

// Compute dispatches one kernel request to the fleet, re-dispatching
// transient failures to surviving members under the retry policy. req
// is caller-owned and reused verbatim across attempts, so a retried
// frame is bit-identical to a first-try one.
func (f *Fleet) Compute(ctx context.Context, req []byte) ([]byte, error) {
	var out []byte
	err := pipeline.Retry(ctx, f.opts.Retry, IsTransient, func(ctx context.Context) error {
		var aerr error
		out, aerr = f.computeOnce(ctx, req)
		return aerr
	})
	if err != nil {
		return nil, fmt.Errorf("remote: fleet compute failed: %w", err)
	}
	return out, nil
}

// ComputeExtract ships one projected point set to the fleet's
// hybrid-extraction kernel and decodes the representation it sends
// back — the remote form of octree.Build + hybrid.Extract with the
// same configs. The request encodes once and failover re-ships the
// identical bytes, so fleet output is bit-identical to a one-worker or
// local run. Request and reply buffers recycle through the payload
// pool, so a steady-state distributed stream stops allocating wire
// scratch after the first few frames in flight.
func (f *Fleet) ComputeExtract(ctx context.Context, pts []vec.V3, tcfg octree.Config, ecfg hybrid.ExtractConfig) (*hybrid.Representation, error) {
	req := appendExtractRequest(getBytes(0), pts, tcfg, ecfg)
	out, err := f.Compute(ctx, req)
	putBytes(req)
	if err != nil {
		return nil, err
	}
	rep, err := hybrid.DecodeBinary(out)
	putBytes(out)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// probeLoop re-dials ejected members every interval, re-verifying the
// kernel advertisement before readmission. A member that answers but
// no longer hosts the kernel flips to WorkerRefused and stays out.
func (f *Fleet) probeLoop(interval time.Duration) {
	defer f.probeWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.probeDone:
			return
		case <-t.C:
			f.probeEjected()
		}
	}
}

func (f *Fleet) probeEjected() {
	f.mu.Lock()
	var targets []*member
	for _, m := range f.members {
		if m.state == WorkerEjected {
			targets = append(targets, m)
		}
	}
	f.mu.Unlock()
	for _, m := range targets {
		cli, err := f.admit(m.addr)
		if errors.Is(err, errMisprovisioned) {
			f.mu.Lock()
			if m.state == WorkerEjected {
				m.state = WorkerRefused
			}
			f.mu.Unlock()
			continue
		}
		if err != nil {
			continue // still down; next tick tries again
		}
		f.mu.Lock()
		if f.closed || m.state != WorkerEjected {
			f.mu.Unlock()
			cli.Close()
			continue
		}
		m.cli = cli
		m.state = WorkerHealthy
		m.streak = 0
		m.rejoins++
		f.wakeLocked()
		f.mu.Unlock()
	}
}
