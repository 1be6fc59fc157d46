package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must raise the due-time latency of the
// requests queued behind the stalled one, but not their service time,
// and the generator must report its own lateness separately.
func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	shots, _ := openLoop(context.Background(), 200, 500*time.Millisecond, 1, func(ctx context.Context, i int) error {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	if len(shots) != 100 {
		t.Fatalf("%d shots, want 100", len(shots))
	}
	stalled := shots[4]
	if stalled.Service() < stall {
		t.Fatalf("stalled request served in %v, want ≥ %v", stalled.Service(), stall)
	}
	// The next request was due 5 ms after the stalled one and waited for
	// the single connection.
	next := shots[5]
	if next.Latency() < stall/2 {
		t.Errorf("queued request latency %v, want ≥ %v from its due time", next.Latency(), stall/2)
	}
	if next.Service() > stall/3 {
		t.Errorf("queued request service time %v includes the stall", next.Service())
	}
	lat, svc, late, failed := shotStats(shots)
	if failed != 0 || len(lat) != 100 || len(svc) != 100 || len(late) != 100 {
		t.Fatalf("shotStats: %d failed, %d/%d/%d samples", failed, len(lat), len(svc), len(late))
	}
	if l, _ := pct(late, 90); l > 20 {
		t.Errorf("generator p90 lateness %.1f ms: the stall leaked into the schedule", l)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	shots, _ := openLoop(ctx, 1000, time.Minute, 2, func(context.Context, int) error {
		if n.Add(1) == 50 {
			cancel()
		}
		return nil
	})
	if len(shots) < 50 || len(shots) > 200 {
		t.Fatalf("%d shots after cancelling at the 50th", len(shots))
	}
}
