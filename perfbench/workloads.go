package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/server"
	"github.com/imgrn/imgrn/internal/synth"
)

// opKind is a request class.
type opKind int

const (
	kindQuery  opKind = iota // POST /query
	kindGraph                // POST /query-graph
	kindBatch                // POST /query-batch
	kindAdd                  // POST /add-matrix
	kindRemove               // POST /remove-matrix
)

var kindPaths = [...]string{"/query", "/query-graph", "/query-batch", "/add-matrix", "/remove-matrix"}

func (k opKind) path() string { return kindPaths[k] }

// op is one generated request.
type op struct {
	kind opKind
	body []byte
	// widths are the query genes of each item (one entry for /query and
	// /query-graph, B for /query-batch): every answer names that many.
	widths []int
	// oracle indexes the expected answers of scan_analytic, -1 elsewhere.
	oracle int
	// source is the add/remove target; matrix the added matrix as sent.
	source int
	matrix *gene.Matrix
}

// result is one completed request.
type result struct {
	op              *op
	due, start, end time.Time
	status          int
	body            []byte
	err             error
}

// opGen is the state a workload draws one phase's requests from.
type opGen struct {
	rng   *randgen.Rand
	phase int
	// trace asks the server for its per-stage spans in every response.
	trace bool
	seq   int
}

// take returns the position of the next request in the phase. The
// workloads stratify on it: request classes and query widths follow a
// fixed cycle, and only the content within a class is random, so the mix
// of a window does not vary from seed to seed.
func (g *opGen) take() int {
	g.seq++
	return g.seq - 1
}

// workload is one traffic mix against one deployment shape.
type workload interface {
	// deploy generates the database and brings the servers up under dir:
	// the work setup_s times.
	deploy(dir string) (*deployment, error)
	// prepare builds what the answer checks need (untimed).
	prepare(d *deployment, rng *randgen.Rand) error
	// startPhase resets per-phase generator state.
	startPhase()
	// next draws the next request of the traffic mix.
	next(g *opGen) (*op, error)
	// await blocks until o's prerequisites (an earlier write) are done,
	// just before o is sent.
	await(o *op)
	// check records r's effects and verifies its answer, returning the
	// stats block of each query item; it sees every completed request, and
	// its result counts only for a 200.
	check(r *result) ([]server.QueryStats, error)
	// finish runs the end-of-run checks with no request in flight and
	// reports any extra end-to-end figures.
	finish(d *deployment, client *http.Client, rng *randgen.Rand, rep *report) error
}

// workloadInfo is the fixed description of one workload.
type workloadInfo struct {
	name string
	why  string
	// rate is the open-loop arrival rate in requests per second, fixed at
	// a quarter to a third of the closed-loop peak_qps measured on a shared
	// 2-vCPU host. At half of it, the host's varying CPU steal pushed the
	// queue into backlog in some runs and the open-loop latencies swung by
	// more than the benchmark's bounds.
	rate float64
	// warmBlock is the warm-up block size: enough requests for a steady
	// cache hit rate estimate at the workload's throughput.
	warmBlock int
	// settings describes the database and traffic for the run record.
	settings string
	make     func() workload
}

var workloads = []workloadInfo{
	{
		name:      "explore_mc",
		why:       "standalone Monte Carlo exploration larger than the edge-probability cache: infer, Lemma-5 pruning, MC refinement, the cache and the batch engine",
		rate:      18,
		warmBlock: 100,
		settings: "standalone, 1 shard; synth N=1200 (15-30 genes, 10-20 samples, gene pool 40, data seed 1101); " +
			"95% /query (fresh ExtractQuery, widths 2-8, gamma 0.4, alpha 0.3, server-default R and seed), " +
			"5% /query-batch of B=8 prefix variants; edge-probability cache 65536 entries per estimator",
		make: func() workload { return &exploreMC{} },
	},
	{
		name:      "scan_analytic",
		why:       "in-process P=4 analytic scans: traversal, scatter and the top-k merge dominate, and every answer is checked against the baseline oracle",
		rate:      70,
		warmBlock: 200,
		settings: "in-process sharded, P=4; shardBench database (synth N=800, 20-40 genes, 10-20 samples, gene pool 40, data seed 33); " +
			"analytic estimator, gamma 0.4, alpha 0.3, widths 3-6 from a pool of 128 requests: " +
			"50% threshold /query, 25% topK=10 /query, 25% /query-graph with explicit patterns",
		make: func() workload { return &scanAnalytic{} },
	},
	{
		name:      "cluster_rw",
		why:       "loopback cluster of 2 durable shard servers with reads beside fsynced writes: RPC, WAL fsync, snapshots and cache invalidation; fits the cache",
		rate:      130,
		warmBlock: 400,
		settings: "2 durable shard servers (2 global shards, replication 2, fsync on, one data dir each) behind a coordinator; " +
			"synth N=200 (15-30 genes, 10-20 samples, gene pool 40, data seed 2201); checkpoint at 48 KiB of WAL; " +
			"80% MC /query (widths 2-8, seeds from {101,202}), 10% /add-matrix, 10% /remove-matrix of this phase's adds",
		make: func() workload { return &clusterRW{} },
	},
}

func workloadByName(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

const (
	gamma = 0.4
	alpha = 0.3
)

// --- request encoding and decoding ---

func geneNames(ids []gene.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = strconv.Itoa(int(id))
	}
	return out
}

func columnsOf(m *gene.Matrix) [][]float64 {
	out := make([][]float64, m.NumGenes())
	for j := range out {
		out[j] = m.Col(j)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are encoded
	}
	return b
}

// wireMatrix rebuilds m the way a server does from its request body, so
// oracles see bit-identical inputs.
func wireMatrix(source int, m *gene.Matrix) (*gene.Matrix, error) {
	return gene.NewMatrix(source, m.Genes(), columnsOf(m))
}

func queryOp(mq *gene.Matrix, p server.ParamsJSON) *op {
	return &op{
		kind:   kindQuery,
		body:   mustJSON(server.QueryRequest{Genes: geneNames(mq.Genes()), Columns: columnsOf(mq), Params: p}),
		widths: []int{mq.NumGenes()},
		oracle: -1,
	}
}

func strictDecode(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// decodeQuery parses a /query or /query-graph reply against the wire
// schema.
func decodeQuery(body []byte) (server.QueryResponse, error) {
	var resp server.QueryResponse
	if err := strictDecode(body, &resp); err != nil {
		return resp, fmt.Errorf("response schema: %w", err)
	}
	if resp.Answers == nil {
		return resp, fmt.Errorf("response schema: no answers array")
	}
	if resp.Stats.Plan == nil {
		return resp, fmt.Errorf("response schema: no stats.plan block")
	}
	return resp, nil
}

// decodeBatch parses a /query-batch NDJSON stream: one frame per item, in
// any order, then the terminal done frame.
func decodeBatch(body []byte, items int) ([]server.BatchFrameJSON, server.BatchDoneJSON, error) {
	frames := make([]server.BatchFrameJSON, items)
	seen := make([]bool, items)
	var done server.BatchDoneJSON
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	for sc.Scan() {
		line := sc.Bytes()
		if done.Done {
			return nil, done, fmt.Errorf("batch stream: data after the done frame")
		}
		if err := strictDecode(line, &done); err == nil && done.Done {
			continue
		}
		var f server.BatchFrameJSON
		if err := strictDecode(line, &f); err != nil {
			return nil, done, fmt.Errorf("batch frame schema: %w", err)
		}
		if f.Index < 0 || f.Index >= items || seen[f.Index] {
			return nil, done, fmt.Errorf("batch frame index %d repeated or out of range", f.Index)
		}
		if f.Error != "" {
			return nil, done, fmt.Errorf("batch item %d: %s", f.Index, f.Error)
		}
		if f.Stats == nil || f.Stats.Plan == nil {
			return nil, done, fmt.Errorf("batch item %d: no stats block", f.Index)
		}
		seen[f.Index] = true
		frames[f.Index] = f
	}
	if !done.Done {
		return nil, done, fmt.Errorf("batch stream: no done frame")
	}
	for i, ok := range seen {
		if !ok {
			return nil, done, fmt.Errorf("batch stream: no frame for item %d", i)
		}
	}
	if done.Queries != items || done.Errors != 0 {
		return nil, done, fmt.Errorf("batch done frame: %d queries, %d errors, want %d and 0", done.Queries, done.Errors, items)
	}
	return frames, done, nil
}

// checkAnswers verifies what every answer must satisfy whatever the
// estimator: α < Pr ≤ 1, an existing source, the query's genes, and edges
// between query vertices with γ < p ≤ 1.
func checkAnswers(answers []server.AnswerJSON, width int, exists func(source int) bool) error {
	for _, a := range answers {
		if !(a.Prob > alpha && a.Prob <= 1) {
			return fmt.Errorf("source %d: Pr %v outside (%v, 1]", a.Source, a.Prob, alpha)
		}
		if !exists(a.Source) {
			return fmt.Errorf("answer names source %d, which does not exist", a.Source)
		}
		if len(a.Genes) != width {
			return fmt.Errorf("source %d: %d answer genes for a %d-gene query", a.Source, len(a.Genes), width)
		}
		for _, e := range a.Edges {
			if e.S < 0 || e.S >= width || e.T < 0 || e.T >= width || e.S == e.T {
				return fmt.Errorf("source %d: edge (%d,%d) outside the query", a.Source, e.S, e.T)
			}
			if !(e.Prob > gamma && e.Prob <= 1) {
				return fmt.Errorf("source %d: edge prob %v outside (%v, 1]", a.Source, e.Prob, gamma)
			}
		}
	}
	return nil
}

// checkReply checks any query reply: schema plus per-answer invariants.
// It returns the per-item stats for the layer breakdown.
func checkReply(r *result, exists func(int) bool) ([]server.QueryStats, error) {
	o := r.op
	if o.kind == kindBatch {
		frames, _, err := decodeBatch(r.body, len(o.widths))
		if err != nil {
			return nil, err
		}
		out := make([]server.QueryStats, len(frames))
		for i, f := range frames {
			if err := checkAnswers(f.Answers, o.widths[i], exists); err != nil {
				return nil, fmt.Errorf("batch item %d: %w", i, err)
			}
			out[i] = *f.Stats
		}
		return out, nil
	}
	resp, err := decodeQuery(r.body)
	if err != nil {
		return nil, err
	}
	return []server.QueryStats{resp.Stats}, checkAnswers(resp.Answers, o.widths[0], exists)
}

// sameAnswers compares a reply with the oracle's answers, in order,
// source by source and probability by probability.
func sameAnswers(got []server.AnswerJSON, want []core.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Source != want[i].Source || got[i].Prob != want[i].Prob {
			return fmt.Errorf("answer %d is source %d Pr %v, oracle has source %d Pr %v",
				i, got[i].Source, got[i].Prob, want[i].Source, want[i].Prob)
		}
	}
	return nil
}

// --- explore_mc ---

type exploreMC struct {
	ds *synth.Dataset
}

func (w *exploreMC) deploy(string) (*deployment, error) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 1200, NMin: 15, NMax: 30, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 1101,
	})
	if err != nil {
		return nil, err
	}
	w.ds = ds
	return deployInProcess(ds.DB, 1)
}

func (w *exploreMC) prepare(*deployment, *randgen.Rand) error { return nil }
func (w *exploreMC) startPhase()                              {}
func (w *exploreMC) await(*op)                                {}

func (w *exploreMC) next(g *opGen) (*op, error) {
	// The client omits samples and seed: the server's default R applies.
	p := server.ParamsJSON{Gamma: gamma, Alpha: alpha, Trace: g.trace}
	// Every 20th request is a batch; query widths cycle through 2-8.
	if i := g.take(); i%20 != 19 {
		mq, _, err := w.ds.ExtractQuery(g.rng, 2+i%7)
		if err != nil {
			return nil, err
		}
		return queryOp(mq, p), nil
	}
	// Two 8-gene regions, each probed at widths 8, 6, 4 and 2: prefixes
	// of the BFS-ordered extraction stay connected.
	o := &op{kind: kindBatch, oracle: -1}
	var req server.BatchRequest
	for b := 0; b < 2; b++ {
		base, _, err := w.ds.ExtractQuery(g.rng, 8)
		if err != nil {
			return nil, err
		}
		for _, nq := range []int{8, 6, 4, 2} {
			q, err := base.SubMatrix(-1, identity(nq))
			if err != nil {
				return nil, err
			}
			req.Queries = append(req.Queries, server.BatchQueryJSON{
				Genes: geneNames(q.Genes()), Columns: columnsOf(q), Params: p,
			})
			o.widths = append(o.widths, nq)
		}
	}
	o.body = mustJSON(req)
	return o, nil
}

func (w *exploreMC) check(r *result) ([]server.QueryStats, error) {
	return checkReply(r, func(src int) bool { return w.ds.DB.BySource(src) != nil })
}

func (w *exploreMC) finish(*deployment, *http.Client, *randgen.Rand, *report) error { return nil }

// --- scan_analytic ---

// scanPoolSize is the number of distinct requests scan_analytic draws
// from; each one's answers are computed by the baseline before timing.
const scanPoolSize = 128

type scanAnalytic struct {
	ds *synth.Dataset
	// pool holds the distinct requests (bodies without the trace flag
	// are rebuilt per phase) and expect their oracle answers.
	pool   []scanRequest
	expect [][]core.Answer
	order  []int // the current pass over the pool
}

type scanRequest struct {
	kind   opKind
	genes  []string
	cols   [][]float64
	edges  []server.EdgeJSON
	topK   int
	widths []int
}

func (w *scanAnalytic) deploy(string) (*deployment, error) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 800, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 33,
	})
	if err != nil {
		return nil, err
	}
	w.ds = ds
	return deployInProcess(ds.DB, 4)
}

// prepare draws the request pool and answers it with core.BuildBaseline
// over the same database: the analytic estimator is deterministic, so
// every reply must match its oracle exactly. The pool is drawn in order
// from rng and answered on one worker per CPU, each with its own baseline
// (a Baseline serves one query at a time).
func (w *scanAnalytic) prepare(_ *deployment, rng *randgen.Rand) error {
	w.pool = make([]scanRequest, scanPoolSize)
	w.expect = make([][]core.Answer, scanPoolSize)
	queries := make([]*gene.Matrix, scanPoolSize)
	graphs := make([]*grn.Graph, scanPoolSize)
	for k := range w.pool {
		// Request classes and widths are stratified over the pool.
		src, _, err := w.ds.ExtractQuery(rng, 3+(k/4)%4)
		if err != nil {
			return err
		}
		mq, err := wireMatrix(-1, src)
		if err != nil {
			return err
		}
		req := scanRequest{kind: kindQuery, genes: geneNames(mq.Genes()), cols: columnsOf(mq), widths: []int{mq.NumGenes()}}
		switch k % 4 {
		case 2:
			req.topK = 10
		case 3:
			q, err := grn.Infer(mq, grn.AnalyticScorer{}, gamma)
			if err != nil {
				return err
			}
			req.kind, req.cols, graphs[k] = kindGraph, nil, q
			for _, e := range q.Edges() {
				req.edges = append(req.edges, server.EdgeJSON{S: e.S, T: e.T, Prob: e.P})
			}
		}
		w.pool[k], queries[k] = req, mq
	}

	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			base, err := core.BuildBaseline(w.ds.DB, core.Params{Gamma: gamma, Alpha: alpha, Analytic: true})
			if err != nil {
				errs[wk] = err
				return
			}
			for k := wk; k < len(w.pool); k += workers {
				var want []core.Answer
				if graphs[k] != nil {
					want, _, err = base.QueryGraph(graphs[k])
				} else {
					want, _, err = base.Query(queries[k])
				}
				if err != nil {
					errs[wk] = err
					return
				}
				if n := w.pool[k].topK; n > 0 {
					core.RankAnswers(want)
					if len(want) > n {
						want = want[:n]
					}
				}
				w.expect[k] = want
			}
		}(wk)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *scanAnalytic) startPhase() {}
func (w *scanAnalytic) await(*op)   {}

// next walks the pool in a fresh seeded order on every pass, so each
// window sends every pool entry about equally often.
func (w *scanAnalytic) next(g *opGen) (*op, error) {
	k := g.take() % len(w.pool)
	if k == 0 {
		w.order = g.rng.Perm(len(w.pool))
	}
	i := w.order[k]
	req := w.pool[i]
	p := server.ParamsJSON{Gamma: gamma, Alpha: alpha, Analytic: true, TopK: req.topK, Trace: g.trace}
	o := &op{kind: req.kind, widths: req.widths, oracle: i}
	if req.kind == kindGraph {
		o.body = mustJSON(server.GraphQueryRequest{Genes: req.genes, Edges: req.edges, Params: p})
	} else {
		o.body = mustJSON(server.QueryRequest{Genes: req.genes, Columns: req.cols, Params: p})
	}
	return o, nil
}

func (w *scanAnalytic) check(r *result) ([]server.QueryStats, error) {
	resp, err := decodeQuery(r.body)
	if err != nil {
		return nil, err
	}
	if err := checkAnswers(resp.Answers, r.op.widths[0], func(src int) bool { return w.ds.DB.BySource(src) != nil }); err != nil {
		return nil, err
	}
	return []server.QueryStats{resp.Stats}, sameAnswers(resp.Answers, w.expect[r.op.oracle])
}

func (w *scanAnalytic) finish(*deployment, *http.Client, *randgen.Rand, *report) error { return nil }

// --- cluster_rw ---

const (
	// clusterCheckpointBytes trips a checkpoint every dozen or so adds,
	// so several complete inside every timed window.
	clusterCheckpointBytes = 48 << 10
	// clusterMaxLive bounds the sources a phase has added and not yet
	// removed: past it a write is a remove, below one it is an add.
	clusterMaxLive = 16
	// clusterPhaseSources spaces the source IDs each phase adds.
	clusterPhaseSources = 100000
)

var clusterSeeds = []uint64{101, 202}

type clusterRW struct {
	ds *synth.Dataset

	// Generator state (touched only by next, which is serialized).
	live    []int // this phase's added sources not yet removed, oldest first
	nextSrc int
	phases  int

	mu      sync.Mutex
	acked   map[int]chan struct{} // closed when the add of a source completes
	issued  map[int]bool          // adds sent
	added   map[int]*gene.Matrix  // acknowledged adds not removed, as the servers hold them
	removed map[int]time.Time     // acknowledgement time of each remove
}

func (w *clusterRW) deploy(dir string) (*deployment, error) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 200, NMin: 15, NMax: 30, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 2201,
	})
	if err != nil {
		return nil, err
	}
	w.ds = ds
	return deployCluster(ds.DB, dir, 2, 2, 2, clusterCheckpointBytes)
}

func (w *clusterRW) prepare(*deployment, *randgen.Rand) error {
	w.acked = map[int]chan struct{}{}
	w.issued = map[int]bool{}
	w.added = map[int]*gene.Matrix{}
	w.removed = map[int]time.Time{}
	return nil
}

// startPhase forgets the previous phase's live adds (they stay in the
// database), so a phase's requests depend only on its own random stream.
func (w *clusterRW) startPhase() {
	w.phases++
	w.live = nil
	w.nextSrc = w.phases * clusterPhaseSources
}

// next cycles through ten slots: eight queries (widths cycling through
// 2-8, seeds alternating per width cycle), an add and a remove.
func (w *clusterRW) next(g *opGen) (*op, error) {
	i := g.take()
	if slot := i % 10; slot < 8 {
		q := i/10*8 + slot
		mq, _, err := w.ds.ExtractQuery(g.rng, 2+q%7)
		if err != nil {
			return nil, err
		}
		seed := clusterSeeds[(q/7)%len(clusterSeeds)]
		return queryOp(mq, server.ParamsJSON{Gamma: gamma, Alpha: alpha, Seed: seed, Trace: g.trace}), nil
	} else if (slot == 8 && len(w.live) < clusterMaxLive) || len(w.live) == 0 {
		src := w.nextSrc
		w.nextSrc++
		n := g.rng.IntIn(15, 30)
		m, _, err := synth.GenerateMatrix(g.rng, src, synth.SampleIDs(g.rng, 40, n),
			synth.GenParams{Genes: n, Samples: g.rng.IntIn(10, 20)})
		if err != nil {
			return nil, err
		}
		if m, err = wireMatrix(src, m); err != nil {
			return nil, err
		}
		w.live = append(w.live, src)
		w.mu.Lock()
		w.acked[src] = make(chan struct{})
		w.mu.Unlock()
		return &op{
			kind: kindAdd, source: src, matrix: m, oracle: -1,
			body: mustJSON(server.AddMatrixRequest{Source: src, Genes: geneNames(m.Genes()), Columns: columnsOf(m)}),
		}, nil
	}
	src := w.live[0]
	w.live = w.live[1:]
	return &op{kind: kindRemove, source: src, oracle: -1, body: mustJSON(server.RemoveMatrixRequest{Source: src})}, nil
}

func (w *clusterRW) await(o *op) {
	w.mu.Lock()
	ack := w.acked[o.source]
	if o.kind == kindAdd {
		w.issued[o.source] = true
	}
	w.mu.Unlock()
	if o.kind == kindRemove {
		<-ack
	}
}

// exists reports whether source may appear in a reply to a request sent
// at sent: an initial source, or one whose add was sent and whose remove
// was not acknowledged before sent.
func (w *clusterRW) exists(source int, sent time.Time) bool {
	if w.ds.DB.BySource(source) != nil {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	at, gone := w.removed[source]
	return w.issued[source] && !(gone && at.Before(sent))
}

func (w *clusterRW) check(r *result) ([]server.QueryStats, error) {
	o := r.op
	ok := r.err == nil && r.status == 200
	switch o.kind {
	case kindAdd:
		w.mu.Lock()
		defer w.mu.Unlock()
		close(w.acked[o.source])
		if ok {
			w.added[o.source] = o.matrix
		}
		return nil, nil
	case kindRemove:
		if ok {
			w.mu.Lock()
			defer w.mu.Unlock()
			w.removed[o.source] = r.end
			delete(w.added, o.source)
		}
		return nil, nil
	}
	if !ok {
		return nil, nil
	}
	return checkReply(r, func(src int) bool { return w.exists(src, r.start) })
}

// finish checkpoints both stores, measures the disk amplification, and
// sends analytic probe queries through the coordinator, compared with
// core.BuildBaseline over the expected final database (initial + adds −
// removes).
func (w *clusterRW) finish(d *deployment, client *http.Client, rng *randgen.Rand, rep *report) error {
	for _, st := range d.stores {
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	final := gene.NewDatabase()
	for _, m := range w.ds.DB.Matrices() {
		if err := final.Add(m); err != nil {
			return err
		}
	}
	addedSources := make([]int, 0, len(w.added))
	for src := range w.added {
		addedSources = append(addedSources, src)
	}
	sort.Ints(addedSources)
	for _, src := range addedSources {
		if err := final.Add(w.added[src]); err != nil {
			return err
		}
	}
	var userBytes, diskBytes int64
	for _, m := range final.Matrices() {
		userBytes += int64(m.NumGenes() * m.Samples() * 8)
	}
	for _, st := range d.stores {
		n, err := dirBytes(st.Dir())
		if err != nil {
			return err
		}
		diskBytes += n
	}
	rep.metric("disk_amp", "ratio", float64(diskBytes)/float64(userBytes), final.Len(),
		"bytes in both data dirs after a final Checkpoint / raw float64 bytes of the live matrices")

	base, err := core.BuildBaseline(final, core.Params{Gamma: gamma, Alpha: alpha, Analytic: true})
	if err != nil {
		return err
	}
	probes := 0
	for probes < 8 {
		// Half the probes come from surviving added matrices when there
		// are any, so acknowledged adds must be visible.
		var from *gene.Matrix
		if probes%2 == 1 && len(w.added) > 0 {
			from = final.Matrix(w.ds.DB.Len() + rng.Intn(len(w.added)))
		} else {
			from = w.ds.DB.Matrix(rng.Intn(w.ds.DB.Len()))
		}
		width := rng.IntIn(3, 5)
		if from.NumGenes() < width {
			continue
		}
		sub, err := from.SubMatrix(-1, rng.SampleWithoutReplacement(from.NumGenes(), width))
		if err != nil {
			return err
		}
		mq, err := wireMatrix(-1, sub)
		if err != nil {
			return err
		}
		want, _, err := base.Query(mq)
		if err != nil {
			return err
		}
		o := queryOp(mq, server.ParamsJSON{Gamma: gamma, Alpha: alpha, Analytic: true})
		status, body, err := post(client, d.front, o)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			var resp server.QueryResponse
			if resp, err = decodeQuery(body); err == nil {
				err = sameAnswers(resp.Answers, want)
			}
		}
		if err != nil {
			return fmt.Errorf("probe %d: %w", probes, err)
		}
		probes++
	}
	rep.note(fmt.Sprintf("final probes: %d analytic queries match core.BuildBaseline over the expected %d-source database", probes, final.Len()))
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
