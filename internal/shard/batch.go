package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/randgen"
)

// Sharded batch execution (DESIGN.md §14).
//
// P = 1 delegates the whole batch to the single shard's core.QueryBatch —
// one prologue, shared γ-group traversals, refinement in item order
// against the shard's caches: byte-identical to running the items
// sequentially through the unsharded engine.
//
// P > 1 runs ONE scatter for the whole batch instead of one per query:
// plans resolve once per distinct request group, every matrix item's
// query graph is inferred once at the caller's base seed (inference reads
// only the matrix, never the shards), and each shard receives the full
// batch as pre-inferred graph items with its per-shard params rewrite
// (derived seed, cache handle, per-item top-k sink). Each shard then runs
// its own core.QueryBatch — so the per-shard prologue, traversal sharing
// and permutation sharing all happen once per shard per batch, not once
// per shard per query. A per-item countdown merges each item as its last
// shard completes it, so results stream out as individual queries finish
// (possibly out of item order; the server serializes frames).
//
// Items with K > 0 refine against a per-item shared core.TopKSink: all
// shards of one item raise one floor, keeping the cross-shard
// Markov-bound early termination of QueryTopKContext per batch item.

// QueryBatch answers a batch of queries scatter-gather. It returns one
// result per item in item order; opts.OnResult streams each item as its
// merge completes. Item errors are per item — a failed item never fails
// its siblings — and the batch-level counters aggregate across shards.
func (c *Coordinator) QueryBatch(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	if len(c.shards) == 1 {
		return c.queryBatchOne(ctx, items, opts)
	}
	return c.queryBatchScatter(ctx, items, opts)
}

// queryBatchOne is the P=1 fast path: the whole batch runs on the single
// shard with the caller's params plus the shard's cache handles.
func (c *Coordinator) queryBatchOne(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	s := c.shards[0]
	// Resolve plans before cache selection: the cache key includes the
	// sample count, which an (Eps, Delta) accuracy request rewrites.
	// QueryBatch re-runs the (idempotent) resolution and re-derives the
	// same per-item errors for the items skipped here.
	errs := core.ResolveBatchPlans(items)
	for i := range items {
		if errs[i] == nil {
			items[i].Params.Cache = s.caches.For(items[i].Params)
		}
	}
	s.mu.RLock()
	results, bst := core.QueryBatch(ctx, s.idx, items, opts)
	s.mu.RUnlock()
	for _, r := range results {
		if r.Err == nil {
			s.recordQuery(r.Stats)
		}
	}
	return results, bst
}

// queryBatchScatter is the P>1 path: one scatter for the whole batch.
func (c *Coordinator) queryBatchScatter(ctx context.Context, items []core.BatchItem, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats) {
	nShards := len(c.shards)
	results := make([]core.BatchResult, len(items))
	bst := core.BatchStats{Queries: len(items)}
	var bstMu sync.Mutex

	// Streaming is concurrent across items here (the last shard of an
	// item fires its merge); serialize the caller's callback.
	var emitMu sync.Mutex
	finish := func(i int, res core.BatchResult) {
		results[i] = res
		if res.Err != nil {
			bstMu.Lock()
			bst.Errors++
			bstMu.Unlock()
		}
		if opts.OnResult != nil {
			emitMu.Lock()
			opts.OnResult(i, res)
			emitMu.Unlock()
		}
	}

	// Shared prologue: plan resolution once per distinct request group,
	// then one inference per matrix item at the caller's base seed so the
	// scattered graph — like the solo scatter's — is independent of P.
	start := time.Now()
	planErrs := core.ResolveBatchPlans(items)
	type liveItem struct {
		orig int // index into items/results
		base core.Stats
		sink *core.TopKSink
	}
	var live []liveItem
	for i := range items {
		if planErrs[i] != nil {
			finish(i, core.BatchResult{Err: planErrs[i]})
			continue
		}
		it := liveItem{orig: i}
		if items[i].Graph == nil {
			if items[i].Matrix == nil {
				finish(i, core.BatchResult{Err: core.ErrNoBatchQuery})
				continue
			}
			ictx, cancel := ctx, context.CancelFunc(func() {})
			if opts.ItemTimeout > 0 {
				ictx, cancel = context.WithTimeout(ctx, opts.ItemTimeout)
			}
			q, ist, err := c.inferOnce(ictx, items[i].Matrix, items[i].Params)
			cancel()
			if err != nil {
				finish(i, core.BatchResult{Err: err})
				continue
			}
			items[i].Graph = q
			it.base = ist
		} else {
			it.base.QueryVertices = items[i].Graph.NumVertices()
			it.base.QueryEdges = items[i].Graph.NumEdges()
		}
		it.base.Plan = items[i].Params.Plan
		if items[i].K > 0 {
			it.sink = core.NewTopKSink(items[i].K, items[i].Params.Alpha)
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return results, bst
	}

	// One scatter: each shard runs the whole surviving batch as graph
	// items under its read lock. Per-item countdown latches fire the
	// cross-shard merge the moment an item's last shard retires it.
	shardResults := make([][]core.BatchResult, nShards)
	for s := range shardResults {
		shardResults[s] = make([]core.BatchResult, len(live))
	}
	remaining := make([]atomic.Int32, len(live))
	for p := range remaining {
		remaining[p].Store(int32(nShards))
	}
	mergeItem := func(pos int) {
		li := live[pos]
		st := li.base
		var runs [][]core.Answer
		perShard := make([]core.Stats, 0, nShards)
		for s := 0; s < nShards; s++ {
			r := shardResults[s][pos]
			if r.Err != nil {
				finish(li.orig, core.BatchResult{Err: fmt.Errorf("shard %d: %w", s, r.Err)})
				return
			}
			runs = append(runs, r.Answers)
			perShard = append(perShard, r.Stats)
		}
		mergeScatterStats(&st, perShard)
		st.Plan = li.base.Plan
		mStart := time.Now()
		var merged []core.Answer
		if li.sink != nil {
			merged = li.sink.Results()
		} else {
			merged = core.MergeAnswerRuns(runs)
		}
		produced := st.Answers
		st.Answers = len(merged)
		p := items[li.orig].Params
		p.Trace.Record(obs.StageMerge, mStart, time.Since(mStart), produced, len(merged))
		p.Trace.Record(obs.StageScatter, start, time.Since(start), nShards, produced)
		st.Total = time.Since(start)
		finish(li.orig, core.BatchResult{Answers: merged, Stats: st})
	}

	ec := exec.New(ctx, nil, c.opts.Workers).WithArena(exec.GrabArena())
	defer ec.Close()
	err := ec.ForEach(nShards, func(s int) error {
		sh := c.shards[s]
		shardItems := make([]core.BatchItem, len(live))
		for pos, li := range live {
			sp := items[li.orig].Params
			sp.Seed = randgen.SeedFrom(sp.Seed, uint64(s))
			sp.Sink = li.sink
			sp.Cache = sh.caches.For(sp)
			// The plan traveled with the params; K stays 0 at shard level
			// (the shared sink owns the trim).
			shardItems[pos] = core.BatchItem{Graph: items[li.orig].Graph, Params: sp}
		}
		shardOpts := core.BatchOptions{
			SharedPerms: opts.SharedPerms,
			ItemTimeout: opts.ItemTimeout,
			OnResult: func(pos int, res core.BatchResult) {
				shardResults[s][pos] = res
				if res.Err == nil {
					sh.recordQuery(res.Stats)
				}
				if remaining[pos].Add(-1) == 0 {
					mergeItem(pos)
				}
			},
		}
		sh.mu.RLock()
		_, sbst := core.QueryBatch(ctx, sh.idx, shardItems, shardOpts)
		sh.mu.RUnlock()
		bstMu.Lock()
		bst.Groups += sbst.Groups
		bst.NodePairs += sbst.NodePairs
		bst.PermFills += sbst.PermFills
		bst.PermProbes += sbst.PermProbes
		bstMu.Unlock()
		return nil
	})
	// A cancelled scatter context can keep some shard closures from ever
	// running; their items' countdowns never fire. Fail those items
	// explicitly (all merges that will happen have happened: ForEach is a
	// barrier and mergeItem runs synchronously inside the closures).
	for pos := range live {
		if remaining[pos].Load() > 0 {
			e := err
			if e == nil {
				e = ctx.Err()
			}
			if e == nil {
				e = context.Canceled
			}
			finish(live[pos].orig, core.BatchResult{Err: e})
		}
	}
	return results, bst
}
