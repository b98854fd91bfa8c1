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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// tenant is the one tenant every benchmark request is sent as.
const tenant = "bench"

// reqRecord is the client-side account of one request.
type reqRecord struct {
	lat    time.Duration // reply time minus send time (open loop: minus due time)
	lag    time.Duration // open loop: how late the generator sent it
	pairs  int
	ok     int // pairs answered correctly
	failed int // pairs shed, timed out, errored or answered wrongly
}

// loadResult is what one timed load phase observed.
type loadResult struct {
	recs     []reqRecord
	elapsed  time.Duration
	alloc    uint64 // host bytes allocated during the phase
	wrong    int    // wrong answers (also counted in failed)
	problems []string
}

func (l *loadResult) add(o loadResult) {
	l.recs = append(l.recs, o.recs...)
	l.wrong += o.wrong
	l.problems = append(l.problems, o.problems...)
}

func (l *loadResult) totals() (pairs, ok, failed int) {
	for _, r := range l.recs {
		pairs += r.pairs
		ok += r.ok
		failed += r.failed
	}
	return
}

func (l *loadResult) latencies() []time.Duration {
	out := make([]time.Duration, len(l.recs))
	for i, r := range l.recs {
		out[i] = r.lat
	}
	return out
}

// note records a wrong answer; only the first few descriptions are kept.
func (l *loadResult) note(msg string) {
	l.wrong++
	if len(l.problems) < 10 {
		l.problems = append(l.problems, msg)
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// grade checks a request's answers against the reference and fills in the
// record's ok and failed counts. It runs after the request is timed.
func grade(cfg core.Config, q *request, res []serve.PairResult, backtrace bool, rec *reqRecord, out *loadResult) {
	rec.ok, rec.failed = 0, rec.pairs
	if len(res) != len(q.pairs) {
		return
	}
	for i, r := range res {
		if r.Deadline {
			continue
		}
		if msg := checkAnswer(cfg, q.pairs[i], q.want[i], r.Score, r.Success, r.CIGAR, backtrace); msg != "" {
			out.note(msg)
			continue
		}
		rec.ok++
		rec.failed--
	}
}

// submit sends one request through Server.Submit and times it.
func submit(s *serve.Server, q *request, out *loadResult) (reqRecord, []serve.PairResult) {
	rec := reqRecord{pairs: len(q.pairs)}
	start := time.Now()
	res, err := s.Submit(context.Background(), tenant, q.pairs, false)
	rec.lat = time.Since(start)
	if err != nil && len(out.problems) < 10 {
		out.problems = append(out.problems, fmt.Sprintf("submit: %v", err))
	}
	return rec, res
}

// setupServe builds a service under the default Config and answers one
// warm-up request.
func setupServe(cfg core.Config, warm *request) (*serve.Server, time.Duration, error) {
	start := time.Now()
	s, err := serve.New(serve.Config{})
	if err != nil {
		return nil, 0, err
	}
	var lr loadResult
	rec, res := submit(s, warm, &lr)
	took := time.Since(start)
	if grade(cfg, warm, res, false, &rec, &lr); rec.ok != rec.pairs {
		s.Drain()
		return nil, 0, fmt.Errorf("warm-up request: %d of %d pairs answered correctly %v", rec.ok, rec.pairs, lr.problems)
	}
	return s, took, nil
}

// closedLoop runs `clients` callers that each send their next request as
// soon as the previous one is answered, until dur has passed. Requests are
// taken from reqs in turn, starting at index first.
func closedLoop(tr *tracer, cfg core.Config, s *serve.Server, reqs []request, first, clients int, dur time.Duration) loadResult {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([]loadResult, clients)
	alloc0 := totalAlloc()
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(out *loadResult) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := next.Add(1) - 1
				root := tr.begin("bench.request", 0, i)
				sp := tr.begin("serve.Submit", root.id, i)
				q := &reqs[int(i)%len(reqs)]
				rec, res := submit(s, q, out)
				tr.end(sp)
				grade(cfg, q, res, false, &rec, out)
				tr.end(root)
				out.recs = append(out.recs, rec)
			}
		}(&parts[c])
	}
	wg.Wait()
	var lr loadResult
	lr.elapsed = time.Since(start)
	lr.alloc = totalAlloc() - alloc0
	for _, p := range parts {
		lr.add(p)
	}
	return lr
}

// checkNoDrop asserts the service's accounting identity on a drained
// server: every pair offered was answered by hardware or software, hit its
// deadline, or was shed. offered is the benchmark's own count.
func checkNoDrop(m *serve.Metrics, offered int64) error {
	hw, fb, dl, shed, sub := m.HardwarePairs.Load(), m.FallbackPairs.Load(), m.DeadlinePairs.Load(), m.Shed(), m.Submitted.Load()
	if hw+fb+dl+shed != sub || sub != offered {
		return fmt.Errorf("no-drop accounting: hardware %d + fallback %d + deadline %d + shed %d != submitted %d (benchmark offered %d)",
			hw, fb, dl, shed, sub, offered)
	}
	return nil
}

// httpTarget is a service listening on a loopback port with a client that
// uses at most two connections.
type httpTarget struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	tr     *tracer
	inner  http.Handler
	served chan error
}

// ServeHTTP records a span around the service's handler. The client
// passes its span and request IDs in headers so the span joins the
// request's trace.
func (h *httpTarget) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Parent"), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	sp := h.tr.begin("serve.Handler", parent, req)
	h.inner.ServeHTTP(w, r)
	h.tr.end(sp)
}

// startHTTP builds a service under the default Config, serves its handler
// on a loopback port and answers one warm-up request over HTTP.
func startHTTP(tr *tracer, cfg core.Config, warm *request, backtrace bool) (*httpTarget, time.Duration, error) {
	start := time.Now()
	s, err := serve.New(serve.Config{})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain()
		return nil, 0, err
	}
	h := &httpTarget{
		s:      s,
		url:    "http://" + ln.Addr().String() + "/align",
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		tr:     tr,
		inner:  s.Handler(),
		served: make(chan error, 1),
	}
	h.hs = &http.Server{Handler: h}
	go func() { h.served <- h.hs.Serve(ln) }()
	var lr loadResult
	res := h.send(warm, 0, 0, &lr)
	took := time.Since(start)
	rec := reqRecord{pairs: len(warm.pairs)}
	grade(cfg, warm, res, backtrace, &rec, &lr)
	if rec.ok != rec.pairs {
		h.close()
		return nil, 0, fmt.Errorf("warm-up request: %d of %d pairs answered correctly %v", rec.ok, rec.pairs, lr.problems)
	}
	return h, took, nil
}

// close stops the listener, drains the service and waits for the serving
// goroutine to return. It returns the drained service's metrics.
func (h *httpTarget) close() *serve.Metrics {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout leaves nothing to recover: the process exits soon after
	if err := <-h.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("http server: %v\n", err)
	}
	h.client.CloseIdleConnections()
	return h.s.Drain()
}

// send POSTs one request and decodes the reply. A shed or failed request
// returns no results; its error is kept in out only when it is not a shed.
func (h *httpTarget) send(q *request, parent, id int64, out *loadResult) []serve.PairResult {
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(q.body))
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Parent", strconv.FormatInt(parent, 10))
	req.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
	resp, err := h.client.Do(req)
	if err != nil {
		if len(out.problems) < 10 {
			out.problems = append(out.problems, fmt.Sprintf("POST: %v", err))
		}
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout) {
		// Shed with 429/503, or a broken exchange: every pair failed.
		return nil
	}
	var ar serve.AlignResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		out.note(fmt.Sprintf("response does not decode: %v", err))
		return nil
	}
	return ar.Results
}

// openLoop sends requests on a fixed schedule of `rate` requests a second
// for dur, from two senders (so at most two requests are outstanding).
// Each request is timed from the moment it was due, which charges a stall
// to every request it delays; lag is how late the sender actually was.
func openLoop(h *httpTarget, cfg core.Config, reqs []request, first int, rate float64, dur time.Duration, backtrace bool) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	var next atomic.Int64
	parts := make([]loadResult, 2)
	alloc0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(out *loadResult) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				id := int64(first) + i
				// The request's span starts when it was due, not when sent.
				root := h.tr.begin("bench.request", 0, id)
				root.start = due
				sent := time.Now()
				sp := h.tr.begin("http.roundtrip", root.id, id)
				q := &reqs[int(id)%len(reqs)]
				res := h.send(q, sp.id, id, out)
				h.tr.end(sp)
				h.tr.end(root)
				rec := reqRecord{pairs: len(q.pairs), lag: sent.Sub(due), lat: time.Since(due)}
				grade(cfg, q, res, backtrace, &rec, out)
				out.recs = append(out.recs, rec)
			}
		}(&parts[c])
	}
	wg.Wait()
	var lr loadResult
	lr.elapsed = time.Since(start)
	lr.alloc = totalAlloc() - alloc0
	for _, p := range parts {
		lr.add(p)
	}
	return lr
}
