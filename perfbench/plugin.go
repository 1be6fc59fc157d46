package main

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"parowl"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// callLog records one span per plug-in call into a preallocated array,
// so concurrent workers append with one atomic add and no lock. Calls
// beyond its capacity are counted in Dropped but not recorded.
type callLog struct {
	origin  time.Time
	next    atomic.Int64
	spans   []span
	subs    []bool // parallel to spans: true for subs?, false for sat?
	answer  []bool // parallel to spans: the call's answer
	Dropped atomic.Int64
}

func newCallLog(capacity int) *callLog {
	return &callLog{
		origin: time.Now(),
		spans:  make([]span, capacity),
		subs:   make([]bool, capacity),
		answer: make([]bool, capacity),
	}
}

func (l *callLog) now() int64 { return int64(time.Since(l.origin)) }

func (l *callLog) add(start, end int64, subs, answer bool) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.Dropped.Add(1)
		return
	}
	l.spans[i], l.subs[i], l.answer[i] = span{start, end}, subs, answer
}

// recorded returns the number of calls held in the log.
func (l *callLog) recorded() int { return int(min(l.next.Load(), int64(len(l.spans)))) }

// pluginStats is what the call log says about the plug-in layer.
type pluginStats struct {
	SatCalls, SubsCalls int64
	Busy                time.Duration // summed call time over all workers
	Union               time.Duration // time at least one call was running
	SubsP50, SubsP99    time.Duration
	SubsMax             time.Duration
	TrueFrac            float64 // share of subs? calls answered true
	Dropped             int64
}

func (l *callLog) stats() pluginStats {
	n := l.recorded()
	var st pluginStats
	var subsDur []float64
	var trues int64
	for i := 0; i < n; i++ {
		d := l.spans[i].End - l.spans[i].Start
		st.Busy += time.Duration(d)
		if l.subs[i] {
			st.SubsCalls++
			subsDur = append(subsDur, float64(d))
			if l.answer[i] {
				trues++
			}
		} else {
			st.SatCalls++
		}
	}
	st.Union = time.Duration(unionNanos(append([]span(nil), l.spans[:n]...)))
	st.Dropped = l.Dropped.Load()
	if len(subsDur) > 0 {
		sort.Float64s(subsDur)
		st.SubsP50 = time.Duration(quantile(subsDur, 0.5))
		st.SubsP99 = time.Duration(quantile(subsDur, 0.99))
		st.SubsMax = time.Duration(subsDur[len(subsDur)-1])
		st.TrueFrac = float64(trues) / float64(len(subsDur))
	}
	return st
}

// timedReasoner decorates a plug-in with a span per sat?/subs? call.
// It implements reasoner.Wrapper and forwards DisprovesSubs, so the
// classifier's capability probes (AsModelFilter, AsCachePorter) reach
// the wrapped plug-in exactly as they would without the decorator.
type timedReasoner struct {
	r   reasoner.Interface
	log *callLog
}

var (
	_ reasoner.Interface   = (*timedReasoner)(nil)
	_ reasoner.Wrapper     = (*timedReasoner)(nil)
	_ reasoner.ModelFilter = (*timedReasoner)(nil)
)

func (t *timedReasoner) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	start := t.log.now()
	ok, err := t.r.Sat(ctx, c)
	t.log.add(start, t.log.now(), false, ok)
	return ok, err
}

func (t *timedReasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	start := t.log.now()
	ok, err := t.r.Subs(ctx, sup, sub)
	t.log.add(start, t.log.now(), true, ok)
	return ok, err
}

func (t *timedReasoner) DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool {
	mf := reasoner.AsModelFilter(t.r)
	return mf != nil && mf.DisprovesSubs(ctx, sup, sub)
}

func (t *timedReasoner) Unwrap() reasoner.Interface { return t.r }

// timedEngine returns an engine with the default options whose every
// plug-in is the default auto-selected one wrapped in a timedReasoner
// logging to *log (read at call time, so the caller can swap logs
// between operations).
func timedEngine(log *atomic.Pointer[callLog], opts ...parowl.EngineOption) *parowl.Engine {
	opts = append(opts, parowl.WithReasoner(func(t *parowl.TBox) parowl.Reasoner {
		return &timedReasoner{r: parowl.NewAutoReasoner(t), log: log.Load()}
	}))
	return parowl.NewEngine(opts...)
}
