package main

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// rssSampler polls the process's resident set size and keeps the
// highest value seen since the last take. Unlike getrusage's lifetime
// maximum, it can report the high-water mark of one operation, so the
// benchmark's own set-up and references do not count and one unlucky
// collection timing moves one sample, not the run.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(residentBytes())
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v := residentBytes(); v > s.peak.Load() {
					s.peak.Store(v)
				}
			}
		}
	}()
	return s
}

// take returns the peak in MB since the previous take and starts a new
// interval at the current size.
func (s *rssSampler) take() float64 {
	v := max(s.peak.Swap(residentBytes()), residentBytes())
	return float64(v) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentBytes reads the current resident set size from /proc.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
