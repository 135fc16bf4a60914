package shard

import (
	"context"
	"fmt"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/randgen"
)

// Scatter-gather query protocol (DESIGN.md §10).
//
// P = 1 delegates the whole query to the single shard's processor with the
// caller's params untouched: one processor, one sequential RNG stream —
// byte-identical to the unsharded engine (inference and refinement share
// that stream, so splitting the query across processors would already
// perturb it).
//
// P > 1 infers the query graph once (it reads only the query matrix, never
// the shards), then fans QueryGraphContext out over the shards on an exec
// worker pool. Each shard queries its own index under its read lock with
// params rewritten for the shard: Seed derived from (Seed, shard) — so
// results are a pure function of (placement, Params), never of the
// schedule — and Cache pointing at the shard's own store. The shared
// obs.Tracer (concurrency-safe) collects every shard's pipeline spans
// under one scatter span; per-shard Stats are summed into one aggregate
// (durations become aggregate across-shard time, like the Workers>1
// refinement sub-stages).
//
// The top-k entry wires a shared core.TopKSink through every shard's
// params, switching their refinement into the streamed mode: candidates
// verify in descending Lemma-5 upper-bound order and each shard terminates
// its own refinement as soon as its best remaining upper bound falls below
// the sink floor — the k-th best probability found so far across ALL
// shards (cross-shard Markov-bound early termination). The first shard
// error cancels the scatter context, so in-flight shards abort at their
// next cancellation check instead of running to completion.

// QueryContext answers an IM-GRN query scatter-gather: it infers the query
// GRN from mq once and fans the match out over the shards. Answers are
// sorted by source ID, exactly like the unsharded engine.
func (c *Coordinator) QueryContext(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error) {
	if len(c.shards) == 1 {
		return c.queryOne(ctx, mq, params)
	}
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	start := time.Now()
	q, st, err := c.inferOnce(ctx, mq, params)
	if err != nil {
		return nil, st, err
	}
	answers, sst, err := c.scatter(ctx, q, params, nil)
	if err != nil {
		return nil, st, err
	}
	mergeScatterStats(&st, sst)
	st.Plan = params.Plan
	st.Total = time.Since(start)
	return answers, st, nil
}

// planOnce resolves the query plan at the coordinator, before the
// fan-out: the per-shard params copies in scatter share the resolved
// *plan.Plan pointer, so every shard executes the same decisions — the
// plan travels with the query exactly like the once-inferred query
// graph. (Validation must precede resolution: a bad (Eps, Delta) is a
// caller error, not a scatter failure.)
func (c *Coordinator) planOnce(params core.Params) (core.Params, error) {
	if err := params.Validate(); err != nil {
		return params, err
	}
	return params.ResolvePlan()
}

// QueryGraphContext answers a query for an already-inferred query GRN
// scatter-gather.
func (c *Coordinator) QueryGraphContext(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error) {
	if len(c.shards) == 1 {
		return c.queryGraphOne(ctx, q, params)
	}
	var st core.Stats
	params, err := c.planOnce(params)
	if err != nil {
		return nil, st, err
	}
	start := time.Now()
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	answers, sst, err := c.scatter(ctx, q, params, nil)
	if err != nil {
		return nil, st, err
	}
	mergeScatterStats(&st, sst)
	st.Plan = params.Plan
	st.Total = time.Since(start)
	return answers, st, nil
}

// QueryTopKContext answers a query keeping only the k best matches by
// appearance probability (ties toward smaller source IDs). With P>1 and
// k>0 the shards stream their answers into a shared bounded top-k merge
// and terminate early on the cross-shard Markov bound; the returned top-k
// set is deterministic for a fixed placement, though which candidates the
// rising bound prunes — and so the pruning and cache counters — may vary
// run to run. k <= 0 ranks all matches.
func (c *Coordinator) QueryTopKContext(ctx context.Context, mq *gene.Matrix, params core.Params, k int) ([]core.Answer, core.Stats, error) {
	if len(c.shards) == 1 || k <= 0 {
		answers, st, err := c.QueryContext(ctx, mq, params)
		if err != nil {
			return nil, st, err
		}
		mark := params.Trace.Start(obs.StageTopK)
		in := len(answers)
		core.RankAnswers(answers)
		if k > 0 && len(answers) > k {
			answers = answers[:k]
		}
		mark.End(in, len(answers))
		return answers, st, nil
	}
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	start := time.Now()
	q, st, err := c.inferOnce(ctx, mq, params)
	if err != nil {
		return nil, st, err
	}
	sink := core.NewTopKSink(k, params.Alpha)
	answers, sst, err := c.scatter(ctx, q, params, sink)
	if err != nil {
		return nil, st, err
	}
	mergeScatterStats(&st, sst)
	st.Plan = params.Plan
	st.Total = time.Since(start)
	return answers, st, nil
}

// InferGraph reconstructs the probabilistic GRN of a matrix with the
// coordinator's estimator settings; the shards are not consulted (query
// inference reads only the matrix).
func (c *Coordinator) InferGraph(m *gene.Matrix, params core.Params) (*grn.Graph, error) {
	s := c.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		return nil, err
	}
	return proc.InferQueryGraph(m)
}

// queryOne is the P=1 fast path: the whole query — inference and
// refinement on one sequential stream — runs on the single shard's
// processor with the caller's params, byte-identical to the unsharded
// engine.
func (c *Coordinator) queryOne(ctx context.Context, mq *gene.Matrix, params core.Params) ([]core.Answer, core.Stats, error) {
	// Resolve the plan before cache selection: the cache key includes the
	// sample count, which an (Eps, Delta) accuracy request rewrites.
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	s := c.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	params.Cache = s.caches.For(params)
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	answers, st, err := proc.QueryContext(ctx, mq)
	s.recordQuery(st)
	return answers, st, err
}

// queryGraphOne is queryOne for pre-inferred query graphs.
func (c *Coordinator) queryGraphOne(ctx context.Context, q *grn.Graph, params core.Params) ([]core.Answer, core.Stats, error) {
	params, err := c.planOnce(params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	s := c.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	params.Cache = s.caches.For(params)
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		return nil, core.Stats{}, err
	}
	answers, st, err := proc.QueryGraphContext(ctx, q)
	s.recordQuery(st)
	return answers, st, err
}

// recordQuery folds one served query into the shard's lifetime counters.
func (s *shardState) recordQuery(st core.Stats) {
	s.queries.Add(1)
	s.ioCost.Add(st.IOCost)
	s.ioHits.Add(st.IOHits)
}

// inferOnce infers the query graph for the P>1 paths: once, up front, on
// the caller's base Seed (so the inferred graph is independent of P), with
// the infer span and stats recorded coordinator-side.
func (c *Coordinator) inferOnce(ctx context.Context, mq *gene.Matrix, params core.Params) (*grn.Graph, core.Stats, error) {
	var st core.Stats
	start := time.Now()
	s := c.shards[0]
	s.mu.RLock()
	proc, err := core.NewProcessor(s.idx, params)
	if err != nil {
		s.mu.RUnlock()
		return nil, st, err
	}
	q, err := proc.InferQueryGraphContext(ctx, mq)
	s.mu.RUnlock()
	if err != nil {
		return nil, st, fmt.Errorf("shard: inferring query graph: %w", err)
	}
	st.InferQuery = time.Since(start)
	st.QueryVertices = q.NumVertices()
	st.QueryEdges = q.NumEdges()
	params.Trace.Record(obs.StageInfer, start, st.InferQuery, mq.NumGenes(), q.NumEdges())
	return q, st, nil
}

// scatterScratch is internal/shard's compartment of the exec.Arena: the
// flat per-shard slices of one scatter, recycled across queries. Only
// state consumed before the arena is released may live here — the
// per-shard Stats escape to the caller, so they are NOT pooled.
type scatterScratch struct {
	runs  [][]core.Answer
	procs []*core.Processor
}

// scatterScratchFor returns the scatter's pooled scratch, creating and
// registering it in the arena on first use.
func scatterScratchFor(ec *exec.Context) *scatterScratch {
	a := ec.Arena()
	if ss, ok := a.Slot(exec.ArenaScatterScratch).(*scatterScratch); ok {
		return ss
	}
	ss := &scatterScratch{}
	a.SetSlot(exec.ArenaScatterScratch, ss)
	return ss
}

// scatter fans the query graph out over all shards and merges the
// per-shard answers: the full sorted union when sink is nil, the sink's
// ranked top-k otherwise.
//
// The shared prologue runs once, sequentially, before the fan-out:
// parameter validation, the per-shard params rewrite (derived seed, sink,
// cache handle — caches.For contends on the shard's cache mutex, so
// serializing it here keeps the mutex out of the parallel phase), and
// processor construction. The workers then only take the shard read lock
// and run the query.
func (c *Coordinator) scatter(ctx context.Context, q *grn.Graph, params core.Params, sink *core.TopKSink) ([]core.Answer, []core.Stats, error) {
	sStart := time.Now()
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ec := exec.New(scatterCtx, nil, c.opts.Workers).
		WithGrain(params.Grain).
		WithArena(exec.GrabArena())
	defer ec.Close()

	ss := scatterScratchFor(ec)
	runs := exec.GrowSlice(&ss.runs, len(c.shards))
	procs := exec.GrowSlice(&ss.procs, len(c.shards))
	stats := make([]core.Stats, len(c.shards)) // escapes to the caller

	for i, s := range c.shards {
		sp := params
		sp.Seed = randgen.SeedFrom(params.Seed, uint64(i))
		sp.Sink = sink
		sp.Cache = s.caches.For(sp)
		proc, perr := core.NewProcessor(s.idx, sp)
		if perr != nil {
			return nil, nil, perr
		}
		procs[i] = proc
	}

	err := ec.ForEach(len(c.shards), func(i int) error {
		s := c.shards[i]
		s.mu.RLock()
		ans, sst, qerr := procs[i].QueryGraphContext(scatterCtx, q)
		s.mu.RUnlock()
		if qerr != nil {
			return fmt.Errorf("shard %d: %w", i, qerr)
		}
		s.recordQuery(sst)
		runs[i] = ans
		stats[i] = sst
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	produced := 0
	for _, a := range runs {
		produced += len(a)
	}
	params.Trace.Record(obs.StageScatter, sStart, time.Since(sStart), len(c.shards), produced)

	mStart := time.Now()
	var merged []core.Answer
	if sink != nil {
		merged = sink.Results()
	} else {
		// Placement partitions the sources, so the union has no duplicates;
		// each run is already Source-ascending, and the streaming k-way
		// merge preserves that order — matching the unsharded engine's
		// answer order without re-sorting the union.
		merged = core.MergeAnswerRuns(runs)
	}
	params.Trace.Record(obs.StageMerge, mStart, time.Since(mStart), produced, len(merged))
	return merged, stats, nil
}

// mergeScatterStats folds the per-shard stats of one scatter into the
// aggregate query stats; see core.MergeScatterStats.
func mergeScatterStats(st *core.Stats, shards []core.Stats) {
	core.MergeScatterStats(st, shards)
}
