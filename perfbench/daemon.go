package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"parowl"
	"parowl/internal/server"
)

// conns is the number of client connections and the worker-thread
// budget: all load comes from this one process.
const conns = 2

// owldConfig is cmd/owld's flag defaults (server.Config's zero values
// differ: they checkpoint at every boundary, drain with no grace and
// never retry), plus the checkpoint dir and a memory budget.
func owldConfig(dir string, budget int64) server.Config {
	return server.Config{
		Engine: parowl.NewEngine(
			parowl.WithOptions(parowl.Options{RandomCycles: 2, Scheduling: parowl.RoundRobin}),
			parowl.WithReasoner(parowl.NewAutoReasoner),
		),
		CheckpointDir:      dir,
		CheckpointInterval: time.Second,
		QueueDepth:         16,
		ClassifyJobs:       2,
		RequestTimeout:     30 * time.Second,
		DrainGrace:         5 * time.Second,
		MaxResidentBytes:   budget,
		RetryBudget:        2,
		RetryBaseDelay:     500 * time.Millisecond,
		RetryMaxDelay:      30 * time.Second,
	}
}

// daemon is an owld handler served in-process on loopback.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains classification, shuts the listener down and waits for
// the serving goroutine to exit.
func (d *daemon) stop(ctx context.Context) error {
	if err := d.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// client talks to one daemon over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one query answer, kept for checking after the timed phase,
// with the generation it came from (served answers only).
type reply struct {
	lines []string
	batch []bool
	gen   uint64
}

// query sends one request of the mix.
func (c *client) query(ctx context.Context, rq request) (reply, error) {
	var req *http.Request
	var err error
	if rq.Batch != nil {
		body, _ := json.Marshal(map[string]any{"pairs": rq.Batch})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ontologies/"+rq.Onto+"/subsumes", bytes.NewReader(body))
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/ontologies/"+rq.Onto+"/query?q="+url.QueryEscape(rq.Spec), nil)
	}
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode/100 != 2 {
		return reply{}, fmt.Errorf("%s %s: status %d: %s", rq.Onto, rq.Spec, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	r := reply{}
	if r.gen, err = strconv.ParseUint(resp.Header.Get("X-Parowl-Generation"), 10, 64); err != nil {
		return reply{}, fmt.Errorf("generation header: %w", err)
	}
	if rq.Batch != nil {
		var out struct{ Results []bool }
		if err := json.Unmarshal(body, &out); err != nil {
			return reply{}, err
		}
		r.batch = out.Results
		return r, nil
	}
	r.lines = strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	return r, nil
}

// submit posts an ontology document for (re)classification.
func (c *client) submit(ctx context.Context, id string, src []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ontologies?id="+id+"&format=obo", bytes.NewReader(src))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// getJSON decodes a GET response, requiring want as the status.
func (c *client) getJSON(ctx context.Context, path string, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pollInterval is how often the client polls a status or readiness
// endpoint; it bounds the resolution of edit and restart timings.
const pollInterval = 5 * time.Millisecond

// awaitClassified polls the entry until it is classified at generation
// gen or later and returns its status.
func (c *client) awaitClassified(ctx context.Context, id string, gen uint64) (server.StatusInfo, error) {
	for {
		var st server.StatusInfo
		if err := c.getJSON(ctx, "/ontologies/"+id, http.StatusOK, &st); err != nil {
			return st, err
		}
		switch {
		case st.Status == server.StatusClassified && st.Generation >= gen:
			return st, nil
		case st.Status == server.StatusFailed || st.Status == server.StatusInterrupted:
			return st, fmt.Errorf("%s: %s: %s", id, st.Status, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// awaitReady polls /readyz until it answers 200.
func (c *client) awaitReady(ctx context.Context) error {
	for {
		var body map[string]any
		if err := c.getJSON(ctx, "/readyz", http.StatusOK, &body); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// health is the part of /healthz the benchmark reads.
type health struct {
	ResidentBytes int64 `json:"resident_bytes"`
	Evictions     int64 `json:"evictions"`
	Reloads       int64 `json:"reloads"`
	Coalesced     int64 `json:"coalesced_queries"`
}

func (c *client) health(ctx context.Context) (health, error) {
	var h health
	err := c.getJSON(ctx, "/healthz", http.StatusOK, &h)
	return h, err
}
