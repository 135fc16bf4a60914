package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/server"
)

// newClient returns the generator's HTTP client: at most conns
// connections to any server, so requests beyond that wait in the
// generator, where their wait counts in their latency.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func post(client *http.Client, base string, o *op) (status int, body []byte, err error) {
	resp, err := client.Post(base+o.kind.path(), "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// send posts o, timing it from due to the last byte of the reply.
func send(client *http.Client, base string, o *op, due time.Time) *result {
	r := &result{op: o, due: due, start: time.Now()}
	r.status, r.body, r.err = post(client, base, o)
	r.end = time.Now()
	return r
}

// phase collects the results of one load phase.
type phase struct {
	name    string
	elapsed time.Duration

	mu     sync.Mutex
	counts counts
	query  dist // /query and /query-graph, ms
	batch  dist // /query-batch to the done frame, ms
	write  dist // /add-matrix and /remove-matrix, ms
	wait   dist // due to send, ms: time spent queued in the generator
	late   dist // open loop: how late the generator released each arrival, ms
	// overhead is round trip minus the server's stats.totalSeconds, per
	// /query and /query-graph, ms.
	overhead dist
	// batchItems is each /query-batch item's stats.totalSeconds, ms.
	batchItems dist
	// keep retains the stats blocks and requests below; phases that need
	// neither drop them, so the benchmark's own memory stays out of heap_mb.
	keep  bool
	stats []server.QueryStats // every successful query item
	ok    []*op               // successful requests (for the replay sample)
	errs  []string
	// depth is the number of arrivals waiting in the generator, sampled
	// at each open-loop arrival.
	depth []int
	// start and done are when the phase began and when each successful
	// request completed.
	start time.Time
	done  []time.Time
}

func (p *phase) record(w workload, r *result) {
	stats, cerr := w.check(r)
	lat := ms(r.end.Sub(r.due))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts.Attempted++
	p.wait.add(ms(r.start.Sub(r.due)))
	var fail string
	switch {
	case r.err != nil:
		fail = r.err.Error()
	case r.status == http.StatusServiceUnavailable:
		p.counts.Shed++
		fail = "shed: " + string(r.body)
	case r.status != http.StatusOK:
		fail = fmt.Sprintf("status %d: %s", r.status, r.body)
	case cerr != nil:
		p.counts.Wrong++
		fail = "wrong answer: " + cerr.Error()
	}
	d := &p.query
	switch r.op.kind {
	case kindBatch:
		d = &p.batch
	case kindAdd, kindRemove:
		d = &p.write
	}
	if fail != "" {
		if r.status != http.StatusServiceUnavailable || r.err != nil {
			p.counts.Failed++
		}
		d.fail()
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("%s %s", r.op.kind.path(), fail))
		}
		return
	}
	p.counts.Succeeded++
	p.done = append(p.done, r.end)
	d.add(lat)
	if p.keep {
		p.ok = append(p.ok, r.op)
		p.stats = append(p.stats, stats...)
	}
	switch r.op.kind {
	case kindQuery, kindGraph:
		p.overhead.add(ms(r.end.Sub(r.start)) - 1e3*stats[0].TotalSeconds)
	case kindBatch:
		for _, st := range stats {
			p.batchItems.add(1e3 * st.TotalSeconds)
		}
	}
}

// peakRate splits the first dur of the phase into n equal sub-windows and
// returns the median of their completion rates, in requests per second.
func (p *phase) peakRate(dur time.Duration, n int) float64 {
	width := dur / time.Duration(n)
	counts := make([]float64, n)
	for _, t := range p.done {
		if k := int(t.Sub(p.start) / width); k >= 0 && k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= width.Seconds()
	}
	return median(counts)
}

// cacheHitRate is the edge-probability cache hit rate over the phase's
// query items from index from on.
func (p *phase) cacheHitRate(from int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hits, misses float64
	for _, st := range p.stats[from:] {
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
	}
	return ratio(hits, hits+misses)
}

func (p *phase) numStats() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stats)
}

// backlogGrew reports whether arrivals queued in the generator grew over
// the open-loop window: the mean queue depth of the last quarter of
// arrivals exceeds that of the first quarter by more than one request
// per connection.
func (p *phase) backlogGrew(conns int) bool {
	n := len(p.depth)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(p.depth[n-n/4:]) > mean(p.depth[:n/4])+float64(conns)
}

// loadGen drives one deployment with one workload.
type loadGen struct {
	w      workload
	client *http.Client
	base   string
	conns  int
	seed   uint64
}

// phaseGen returns the generator state of a phase: its own random
// stream, so a phase's requests depend only on the seed and the phase.
func (lg *loadGen) phaseGen(phase int, trace bool) *opGen {
	lg.w.startPhase()
	return &opGen{rng: randgen.New(randgen.SeedFrom(lg.seed, uint64(phase))), phase: phase, trace: trace}
}

// closedLoop runs conns clients, each sending its next request when the
// previous one completes, until dur has passed or maxReqs were sent
// (0 = no cap).
func (lg *loadGen) closedLoop(ph *phase, g *opGen, dur time.Duration, maxReqs int) error {
	var (
		mu      sync.Mutex
		sent    int
		genErr  error
		wg      sync.WaitGroup
		start   = time.Now()
		endTime = start.Add(dur)
	)
	ph.start = start
	nextOp := func() *op {
		mu.Lock()
		defer mu.Unlock()
		if genErr != nil || time.Now().After(endTime) || (maxReqs > 0 && sent >= maxReqs) {
			return nil
		}
		o, err := lg.w.next(g)
		if err != nil {
			genErr = err
			return nil
		}
		sent++
		return o
	}
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := nextOp(); o != nil; o = nextOp() {
				lg.w.await(o)
				ph.record(lg.w, send(lg.client, lg.base, o, time.Now()))
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return genErr
}

// arrivals draws a Poisson arrival schedule: offsets from the window
// start with exponential gaps of mean 1/rate, up to dur.
func arrivals(rng *randgen.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// schedule is one open-loop window: the arrival offsets and the request
// due at each, all drawn before the window starts.
type schedule struct {
	offsets []time.Duration
	ops     []*op
}

func (lg *loadGen) makeSchedule(g *opGen, rate float64, dur time.Duration) (*schedule, error) {
	s := &schedule{offsets: arrivals(randgen.New(randgen.SeedFrom(lg.seed, uint64(g.phase), 1)), rate, dur)}
	s.ops = make([]*op, len(s.offsets))
	for i := range s.ops {
		o, err := lg.w.next(g)
		if err != nil {
			return nil, err
		}
		s.ops[i] = o
	}
	return s, nil
}

// openLoop releases each request of s at its due time into a queue that
// conns senders drain; a request's latency runs from its due time, so
// time spent queued behind busy connections counts.
func (lg *loadGen) openLoop(ph *phase, s *schedule) {
	queue := make(chan int, len(s.ops)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lg.w.await(s.ops[i])
				ph.record(lg.w, send(lg.client, lg.base, s.ops[i], start.Add(s.offsets[i])))
			}
		}()
	}
	for i, off := range s.offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		ph.mu.Lock()
		ph.late.add(ms(late))
		ph.depth = append(ph.depth, len(queue))
		ph.mu.Unlock()
		queue <- i
	}
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(start)
}

// warmUp sends the traffic mix closed-loop, untimed, in blocks of block
// requests until the cache hit rate levels off: the mean of the last two
// blocks is within warmLevel of the mean of the two before (or maxDur
// passes). It returns the block hit rates.
func (lg *loadGen) warmUp(g *opGen, block int, maxDur time.Duration) ([]float64, bool, error) {
	const warmLevel = 0.015
	ph := &phase{name: "warmup", keep: true}
	deadline := time.Now().Add(maxDur)
	var rates []float64
	for time.Now().Before(deadline) {
		from := ph.numStats()
		if err := lg.closedLoop(ph, g, time.Until(deadline), block); err != nil {
			return rates, false, err
		}
		if ph.counts.Failed+ph.counts.Shed > 0 {
			return rates, false, fmt.Errorf("warm-up request failed: %v", ph.errs)
		}
		rates = append(rates, ph.cacheHitRate(from))
		if n := len(rates); n >= 4 && math.Abs(rates[n-1]+rates[n-2]-rates[n-3]-rates[n-4]) < 2*warmLevel {
			return rates, true, nil
		}
	}
	return rates, false, nil
}
