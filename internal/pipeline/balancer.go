package pipeline

import (
	"fmt"
	"sync"
	"time"
)

// BalancerOptions tunes the self-balancing loop. The zero value is a
// usable default (20ms interval, grow/steal toward a stage above 75%
// utilization from donors below 45%, 2-tick settle, 1-tick cooldown,
// one worker per move, budget = the chain's initial elastic worker
// count, placement out at 85% saturation and home when the remote
// side's EWMA exceeds 1.5× local).
type BalancerOptions struct {
	// Interval between snapshot/decide ticks (<= 0 means 20ms).
	Interval time.Duration
	// HighWater is the utilization at which the critical stage is
	// considered starved of workers (<= 0 means 0.75).
	HighWater float64
	// LowWater is the utilization at or below which an elastic stage
	// may donate a worker (<= 0 means 0.45).
	LowWater float64
	// Settle is how many consecutive ticks a condition must hold
	// before the balancer acts — the hysteresis that stops one noisy
	// window from thrashing workers (<= 0 means 2).
	Settle int
	// Cooldown is how many ticks to sit out after a decision, letting
	// the windowed rates re-form around the new shape (< 0 means 0;
	// 0 means the default 1).
	Cooldown int
	// MaxMoves bounds the workers shifted per decision (<= 0 means 1).
	MaxMoves int
	// Budget caps the total workers across elastic stages. 0 means the
	// sum of their starting counts — rebalancing then only ever
	// redistributes, never adds load.
	Budget int
	// PlaceHighWater is the utilization at which a placeable critical
	// stage that cannot grow flips to its remote side (<= 0 means
	// 0.85).
	PlaceHighWater float64
	// ReturnFactor flips a remote stage home once its remote EWMA
	// exceeds ReturnFactor × its local EWMA — the degraded-WAN escape
	// hatch (<= 0 means 1.5).
	ReturnFactor float64
	// OnDecision, when set, observes every applied decision.
	OnDecision func(Decision)
}

func (o BalancerOptions) withDefaults() BalancerOptions {
	if o.Interval <= 0 {
		o.Interval = 20 * time.Millisecond
	}
	if o.HighWater <= 0 {
		o.HighWater = 0.75
	}
	if o.LowWater <= 0 {
		o.LowWater = 0.45
	}
	if o.Settle <= 0 {
		o.Settle = 2
	}
	if o.Cooldown == 0 {
		o.Cooldown = 1
	} else if o.Cooldown < 0 {
		o.Cooldown = 0
	}
	if o.MaxMoves <= 0 {
		o.MaxMoves = 1
	}
	if o.PlaceHighWater <= 0 {
		o.PlaceHighWater = 0.85
	}
	if o.ReturnFactor <= 0 {
		o.ReturnFactor = 1.5
	}
	return o
}

// DecisionKind tags what a balancer decision does.
type DecisionKind uint8

const (
	// DecisionGrow adds workers to the critical stage from unspent
	// budget.
	DecisionGrow DecisionKind = iota
	// DecisionMove shifts workers from a donor stage to the critical
	// stage.
	DecisionMove
	// DecisionPlace flips a stage between local and remote execution.
	DecisionPlace
)

// Decision is one balancer action, carrying absolute targets so
// applying it is idempotent and a replayed snapshot sequence yields a
// byte-identical decision log.
type Decision struct {
	Kind  DecisionKind
	Stage string // the stage acted on (the bottleneck)
	// Worker targets (Grow/Move): the new counts after the decision.
	StageWorkers int
	From         string // donor stage (Move only)
	FromWorkers  int
	// Placement target (Place): the new side.
	Remote bool
}

func (d Decision) String() string {
	switch d.Kind {
	case DecisionGrow:
		return fmt.Sprintf("grow %s to %d workers", d.Stage, d.StageWorkers)
	case DecisionMove:
		return fmt.Sprintf("move %s to %d, %s to %d workers", d.From, d.FromWorkers, d.Stage, d.StageWorkers)
	case DecisionPlace:
		side := "local"
		if d.Remote {
			side = "remote"
		}
		return fmt.Sprintf("place %s %s", d.Stage, side)
	}
	return "no-op"
}

// Balancer periodically snapshots a pipeline and shifts capacity
// toward the critical stage: workers first (within the budget and each
// stage's bounds), placement when workers can't help. Decide is a pure
// function of the snapshot sequence — feed it synthetic snapshots in
// tests and the decision log is fully deterministic. Construct with
// NewBalancer (decision engine only) or Pipeline.StartBalancer (engine
// plus the polling goroutine).
type Balancer struct {
	opts BalancerOptions
	p    *Pipeline // nil when driven by hand via Decide

	// Decision-engine state, touched only by the owning goroutine (or
	// the test calling Decide).
	budget    int
	budgetSet bool
	cooldown  int
	hot       map[string]int // consecutive ticks critical+saturated
	cold      map[string]int // consecutive ticks donatable
	placeHot  map[string]int // consecutive ticks saturated & unplaceable locally
	degraded  map[string]int // consecutive ticks remote side degraded

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewBalancer returns an unstarted decision engine for opts. Use it in
// tests (or custom control loops) by calling Decide with snapshots and
// applying the decisions yourself.
func NewBalancer(opts BalancerOptions) *Balancer {
	return &Balancer{
		opts:     opts.withDefaults(),
		hot:      map[string]int{},
		cold:     map[string]int{},
		placeHot: map[string]int{},
		degraded: map[string]int{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// StartBalancer runs a balancer over p's snapshots until the pipeline
// is cancelled, drains, or Stop is called; the pipeline's Wait stops
// it via Defer. Decisions apply through SetStageWorkers and
// SetStagePlacement, so only elastic or placeable stages ever change.
func (p *Pipeline) StartBalancer(opts BalancerOptions) *Balancer {
	b := NewBalancer(opts)
	b.p = p
	go b.run()
	p.Defer(b.Stop)
	return b
}

// Stop halts the polling loop and blocks until it has exited. Safe to
// call more than once; a no-op for hand-driven balancers after the
// first call.
func (b *Balancer) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	if b.p != nil {
		<-b.done
	}
}

func (b *Balancer) run() {
	defer close(b.done)
	t := time.NewTicker(b.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-b.p.ctx.Done():
			return
		case <-t.C:
			for _, d := range b.Decide(b.p.Snapshot()) {
				b.apply(d)
				if b.opts.OnDecision != nil {
					b.opts.OnDecision(d)
				}
			}
		}
	}
}

func (b *Balancer) apply(d Decision) {
	if b.p == nil {
		return
	}
	switch d.Kind {
	case DecisionGrow:
		b.p.SetStageWorkers(d.Stage, d.StageWorkers)
	case DecisionMove:
		// Shrink the donor first so the chain never exceeds the budget,
		// even transiently.
		b.p.SetStageWorkers(d.From, d.FromWorkers)
		b.p.SetStageWorkers(d.Stage, d.StageWorkers)
	case DecisionPlace:
		b.p.SetStagePlacement(d.Stage, d.Remote)
	}
}

// Decide advances the engine one tick over snap and returns the
// decisions to apply (at most one per tick — capacity shifts are
// deliberate, not convulsive). Deterministic: the same snapshot
// sequence always yields the same decisions.
func (b *Balancer) Decide(snap []StageSnapshot) []Decision {
	o := b.opts

	// Locate the critical stage and update hysteresis streaks.
	var crit *StageSnapshot
	for i := range snap {
		s := &snap[i]
		if s.Critical {
			crit = s
		}
	}
	total := 0 // live elastic workers (finished stages have freed theirs)
	for i := range snap {
		s := &snap[i]
		if s.Resizable && !s.Finished {
			total += s.Workers
			if s.Critical && s.Utilization >= o.HighWater {
				b.hot[s.Name]++
			} else {
				b.hot[s.Name] = 0
			}
			if s.Utilization <= o.LowWater {
				b.cold[s.Name]++
			} else {
				b.cold[s.Name] = 0
			}
		}
		if s.Placeable && !s.Finished {
			if !s.Remote && s.Critical && s.Utilization >= o.PlaceHighWater {
				b.placeHot[s.Name]++
			} else {
				b.placeHot[s.Name] = 0
			}
			if s.Remote && s.LocalEWMA > 0 &&
				float64(s.RemoteEWMA) > o.ReturnFactor*float64(s.LocalEWMA) {
				b.degraded[s.Name]++
			} else {
				b.degraded[s.Name] = 0
			}
		}
	}
	if !b.budgetSet && total > 0 {
		b.budget = o.Budget
		if b.budget <= 0 {
			b.budget = total
		}
		b.budgetSet = true
	}
	if b.cooldown > 0 {
		b.cooldown--
		return nil
	}

	// Workers first: grow the critical stage from unspent budget, else
	// steal from the coldest donor.
	if crit != nil && crit.Resizable && !crit.Finished &&
		crit.Workers < crit.MaxWorkers && b.hot[crit.Name] >= o.Settle {
		if free := b.budget - total; free > 0 {
			n := minInt(o.MaxMoves, free, crit.MaxWorkers-crit.Workers)
			d := Decision{Kind: DecisionGrow, Stage: crit.Name, StageWorkers: crit.Workers + n}
			b.acted(crit.Name, "")
			return []Decision{d}
		}
		var donor *StageSnapshot
		for i := range snap {
			s := &snap[i]
			if !s.Resizable || s.Finished || s.Name == crit.Name ||
				s.Workers <= s.MinWorkers || b.cold[s.Name] < o.Settle {
				continue
			}
			if donor == nil || s.Utilization < donor.Utilization {
				donor = s
			}
		}
		if donor != nil {
			n := minInt(o.MaxMoves, donor.Workers-donor.MinWorkers, crit.MaxWorkers-crit.Workers)
			d := Decision{
				Kind:  DecisionMove,
				Stage: crit.Name, StageWorkers: crit.Workers + n,
				From: donor.Name, FromWorkers: donor.Workers - n,
			}
			b.acted(crit.Name, donor.Name)
			return []Decision{d}
		}
	}

	// Placement: a saturated placeable stage that worker moves could
	// not help goes remote; a degraded remote stage comes home. First
	// eligible stage in chain order wins.
	for i := range snap {
		s := &snap[i]
		if !s.Placeable || s.Finished {
			continue
		}
		if !s.Remote && b.placeHot[s.Name] >= o.Settle {
			b.acted(s.Name, "")
			b.placeHot[s.Name] = 0
			return []Decision{{Kind: DecisionPlace, Stage: s.Name, Remote: true}}
		}
		if s.Remote && b.degraded[s.Name] >= o.Settle {
			b.acted(s.Name, "")
			b.degraded[s.Name] = 0
			return []Decision{{Kind: DecisionPlace, Stage: s.Name, Remote: false}}
		}
	}
	return nil
}

// acted arms the cooldown and clears the streaks of the stages a
// decision touched, so the next action needs fresh evidence.
func (b *Balancer) acted(stage, donor string) {
	b.cooldown = b.opts.Cooldown
	b.hot[stage] = 0
	if donor != "" {
		b.cold[donor] = 0
	}
}

func minInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
