package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"sdcmd/internal/serve"
)

// client speaks to one sdcserve over HTTP/2 without TLS: every request
// of a run is multiplexed over one connection (at most nproc).
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		Protocols: &p, MaxConnsPerHost: runtime.NumCPU(),
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reqRecord is what the generator saw of one request. Times are offsets
// from the generator's start.
type reqRecord struct {
	Code    int           `json:"code"`      // POST status code: 201 new job, 200 hit or coalesced
	Due     time.Duration `json:"due_ns"`    // scheduled send
	Sent    time.Duration `json:"sent_ns"`   // POST issued
	Queued  time.Duration `json:"queued_ns"` // POST response seen
	Running time.Duration `json:"running_ns"`
	Done    time.Duration `json:"done_ns"` // terminal status seen (or Queued for a hit)
	Seen    time.Duration `json:"seen_ns"` // result received
	Result  serve.Result  `json:"result"`
	Err     string        `json:"err,omitempty"`
}

func (r reqRecord) latency() time.Duration { return r.Seen - r.Due }
func (r reqRecord) followed() bool         { return r.Running > 0 }

// do runs one request: POST /jobs, then (unless the job is already
// done) follow GET /jobs/{id}/events to its terminal status, then GET
// /jobs/{id}/result.
func (c *client) do(key string, spec serve.JobSpec, start time.Time, due time.Duration) reqRecord {
	r := reqRecord{Due: due}
	at := func() time.Duration { return time.Since(start) }
	fail := func(err error) reqRecord {
		r.Err = err.Error()
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	var st serve.Status
	r.Sent = at()
	r.Code, err = c.call(ctx, http.MethodPost, "/jobs", key, body, &st)
	r.Queued = at()
	r.Done = r.Queued
	if err != nil {
		return fail(err)
	}
	if st.State != serve.StateDone {
		if err := c.follow(ctx, key, st.ID, start, &r); err != nil {
			return fail(err)
		}
	}
	if _, err := c.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", key, nil, &r.Result); err != nil {
		return fail(err)
	}
	r.Seen = at()
	return r
}

// call makes one JSON request and decodes a 200/201 body into out.
func (c *client) call(ctx context.Context, method, path, key string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-API-Key", key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.Unmarshal(b, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// follow reads the job's Server-Sent Events until its terminal status,
// noting when the running and terminal statuses were seen. The stream
// pushes each transition, so no poll interval quantises the latency.
func (c *client) follow(ctx context.Context, key, id string, start time.Time, r *reqRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == serve.EventStatus:
			var st serve.Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return fmt.Errorf("events %s: %w", id, err)
			}
			now := time.Since(start)
			switch st.State {
			case serve.StateRunning:
				if r.Running == 0 {
					r.Running = now
				}
			case serve.StateDone:
				if r.Running == 0 {
					r.Running = now
				}
				r.Done = now
				return nil
			case serve.StateFailed, serve.StateCanceled, serve.StateInterrupted:
				return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	return fmt.Errorf("events %s: stream ended before a terminal status", id)
}

// genPlan is the open-loop schedule handed to the generator process.
type genPlan struct {
	Base string `json:"base"`
	// Start is the wall-clock instant (Unix ns) that due offsets count
	// from.
	Start    int64        `json:"start_unix_ns"`
	Requests []genRequest `json:"requests"`
}

type genRequest struct {
	Due  time.Duration `json:"due_ns"`
	Key  string        `json:"key"`
	Spec serve.JobSpec `json:"spec"`
}

// genOutput is what the generator process reports: the records in
// plan order, and the yardstick passes it ran beside the load.
type genOutput struct {
	Records []reqRecord `json:"records"`
	Gauge   *gauge      `json:"gauge"`
}

// runPlan sends every request at its due time, each from its own
// goroutine (open loop: a slow reply never delays a later send), and
// returns the records in plan order. From the start of the schedule
// until the last reply it also runs serial yardstick passes of the
// fresh-job size (see gaugeLoop).
func runPlan(p genPlan) (genOutput, error) {
	ys, err := newYardstick(freshCells, 1)
	if err != nil {
		return genOutput{}, err
	}
	c := newClient(p.Base)
	defer c.close()
	start := time.Now().Add(time.Until(time.Unix(0, p.Start))) // monotonic anchor
	recs := make([]reqRecord, len(p.Requests))
	stop := make(chan struct{})
	gauged := make(chan *gauge)
	go func() { gauged <- gaugeLoop(ys, start, stop) }()
	var wg sync.WaitGroup
	for i, rq := range p.Requests {
		if d := time.Until(start.Add(rq.Due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = c.do(rq.Key, rq.Spec, start, rq.Due)
		}()
	}
	wg.Wait()
	close(stop)
	return genOutput{Records: recs, Gauge: <-gauged}, nil
}

// gaugeGap is the pause between two yardstick passes of the generator:
// a serial 1 024-atom pass takes about a millisecond, so the gauge uses
// a few per cent of one processor.
const gaugeGap = 20 * time.Millisecond

// gaugeLoop runs yardstick passes on a thread of its own from start
// until stop closes, gaugeGap apart, pinned to each processor in turn.
// Each pass is charged its thread's CPU time, per processor: not wall
// time, which grows whenever the pass shares its processor with a job
// of the server, and not the process's CPU time, which includes the
// load's. Processors of the shared host can differ in speed for
// seconds at a time, and the server's jobs run on any of them.
func gaugeLoop(ys *yardstick, start time.Time, stop <-chan struct{}) *gauge {
	// Not unlocked: the pinned thread exits with this goroutine instead
	// of returning to the runtime's pool.
	runtime.LockOSThread()
	procs := runtime.NumCPU()
	g := &gauge{Pairs: ys.pairs(), ProcCPUNS: make([][]float64, procs)}
	wait := time.NewTimer(time.Until(start))
	defer wait.Stop()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return g
		case <-wait.C:
		}
		p := k % procs
		if err := pinThread(p); err != nil {
			p = 0 // unpinned: every pass counts as processor 0's
		}
		c0 := threadCPU()
		g.add(ys.timedPass())
		g.ProcCPUNS[p] = append(g.ProcCPUNS[p], float64(threadCPU()-c0))
		wait.Reset(gaugeGap)
	}
}

// generate is the generator process: it reads a genPlan on stdin, runs
// it, and writes a genOutput as JSON on stdout. Running the load in its
// own process keeps the generator's goroutines off the server's
// processors, so the server is measured as a client would see it.
func generate(stdin io.Reader, stdout io.Writer) error {
	var p genPlan
	if err := json.NewDecoder(stdin).Decode(&p); err != nil {
		return fmt.Errorf("generator: read plan: %w", err)
	}
	res, err := runPlan(p)
	if err != nil {
		return fmt.Errorf("generator: %w", err)
	}
	return json.NewEncoder(stdout).Encode(res)
}
