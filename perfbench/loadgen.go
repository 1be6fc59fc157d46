package main

import (
	"context"
	"math"
	"sync"
	"syscall"
	"time"
)

// shot is the record of one open-loop request. Times are offsets from
// the start of the schedule.
type shot struct {
	Due   time.Duration // when the schedule said to send it
	Enq   time.Duration // when the generator handed it to a connection queue
	Start time.Duration // when a connection began sending it
	End   time.Duration // when its response (or error) arrived
	Err   error
}

// Latency is the request's time from its due time to its response: it
// includes any wait behind a stalled earlier request.
func (s shot) Latency() time.Duration { return s.End - s.Due }

// Service is the request's time from send to response.
func (s shot) Service() time.Duration { return s.End - s.Start }

// Late is how long after its due time the generator released it.
func (s shot) Late() time.Duration { return s.Enq - s.Due }

// openLoop sends requests on a fixed-rate schedule for dur, regardless
// of how fast earlier ones complete, over conns concurrent connections.
// send(ctx, i) issues request i. Requests that find every connection
// busy wait in a client-side queue; that wait counts in their Latency.
// Cancelling ctx ends the schedule early. openLoop returns the shots
// scheduled, once every one has completed, and the schedule's start.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, send func(ctx context.Context, i int) error) ([]shot, time.Time) {
	n := int(rate * dur.Seconds())
	shots := make([]shot, n)
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection and its own lateness stays measurable.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				shots[i].Start = time.Since(start)
				err := send(ctx, i)
				shots[i].End = time.Since(start)
				shots[i].Err = err
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	sent := 0
	for ; sent < n; sent++ {
		due := time.Duration(sent) * interval
		for wait := due - time.Since(start); wait > 0 && ctx.Err() == nil; wait = due - time.Since(start) {
			sleep(min(wait, 10*time.Millisecond))
		}
		if ctx.Err() != nil {
			break
		}
		shots[sent].Due = due
		shots[sent].Enq = time.Since(start)
		queue <- sent
	}
	close(queue)
	wg.Wait()
	return shots[:sent], start
}

// shotStats extracts due-time latency, service time and generator
// lateness (all in ms) from the successful shots, and counts failures.
func shotStats(shots []shot) (lat, svc, late []float64, failed int) {
	for _, s := range shots {
		late = append(late, ms(s.Late()))
		if s.Err != nil {
			// A failed request misses every latency limit.
			lat = append(lat, math.Inf(1))
			failed++
			continue
		}
		lat = append(lat, ms(s.Latency()))
		svc = append(svc, ms(s.Service()))
	}
	return lat, svc, late, failed
}

// sleep blocks the calling thread in nanosleep. Unlike time.Sleep, whose
// wake-up the runtime's poller rounds up to whole milliseconds, it wakes
// within microseconds: on a 2-CPU host this cut the generator's median
// lateness from about 0.6 ms to 0.1 ms.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
