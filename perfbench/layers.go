package main

import (
	"fmt"
	"math"
)

// reportLayers reports the per-layer metrics of a traced run: the stats blocks
// of the traced window's replies, the /metrics deltas across it, the
// replay spans, and the generator's own clock. A metric a workload does
// not exercise prints as absent with the reason.
func reportLayers(rep *report, d *deployment, untraced, traced *phase, delta promDelta, after []promSnapshot, t *tracer, reads, writes int) {
	var sum struct {
		infer, traverse, markov, mc                      float64
		nodes, nodesPruned, points, pointsPruned         float64
		cands, answers, l5, hits, misses, pages, bufHits float64
		samples                                          float64
	}
	for _, st := range traced.stats {
		sum.infer += st.InferSeconds * 1e3
		sum.traverse += st.TraversalSeconds * 1e3
		sum.markov += st.MarkovSeconds * 1e3
		sum.mc += st.MonteCarloSeconds * 1e3
		sum.nodes += float64(st.NodePairsVisited)
		sum.nodesPruned += float64(st.NodePairsPruned)
		sum.points += float64(st.PointPairsChecked)
		sum.pointsPruned += float64(st.PointPairsPruned)
		sum.cands += float64(st.CandidateMatrices)
		sum.answers += float64(st.Answers)
		sum.l5 += float64(st.MatricesPrunedL5)
		sum.hits += float64(st.CacheHits)
		sum.misses += float64(st.CacheMisses)
		sum.pages += float64(st.IOCost)
		sum.bufHits += float64(st.IOHits)
		sum.samples += float64(st.Plan.Samples)
	}
	n := len(traced.stats)
	items := float64(n)
	per := func(v float64) float64 { return ratio(v, items) }
	const fromStats = "traced window, mean per query item of stats."
	rep.metric("grn.infer_ms", "ms", per(sum.infer), n, fromStats+"inferSeconds")
	rep.metric("core.traverse_ms", "ms", per(sum.traverse), n, fromStats+"traversalSeconds")
	rep.metric("core.node_pairs", "count", per(sum.nodes), n, fromStats+"nodePairsVisited")
	rep.metric("core.node_prune_ratio", "ratio", ratio(sum.nodesPruned, sum.nodes+sum.nodesPruned), n,
		"nodePairsPruned / (nodePairsVisited + nodePairsPruned): pruned pairs are never visited")
	rep.metric("core.point_pairs", "count", per(sum.points), n, fromStats+"pointPairsChecked")
	rep.metric("core.point_prune_ratio", "ratio", ratio(sum.pointsPruned, sum.points), n, "pointPairsPruned / pointPairsChecked")
	rep.metric("core.candidates", "count", per(sum.cands), n, fromStats+"candidateMatrices")
	rep.metric("core.answer_ratio", "ratio", ratio(sum.answers, sum.cands), n, "answers / candidateMatrices")
	rep.metric("core.markov_ms", "ms", per(sum.markov), n, fromStats+"markovPruneSeconds")
	rep.metric("core.l5_prune_ratio", "ratio", ratio(sum.l5, sum.cands), n, "matricesPrunedL5 / candidateMatrices")
	rep.metric("core.monte_carlo_ms", "ms", per(sum.mc), n, fromStats+"monteCarloSeconds")
	rep.metric("core.cache_hit_rate", "ratio", ratio(sum.hits, sum.hits+sum.misses), n, "cacheHits / (cacheHits + cacheMisses)")
	entries := 0
	for _, c := range d.coords {
		for _, info := range c.Snapshot() {
			entries += info.CacheEntries
		}
	}
	rep.metric("core.cache_entries", "count", float64(entries), len(d.coords), "edge-probability cache entries over every shard (Coordinator.Snapshot) after the traced window")
	rep.metric("pagestore.pages_per_query", "pages", per(sum.pages), n, "SIMULATED page accesses, "+fromStats+"ioPages")
	rep.metric("pagestore.buffer_hit_ratio", "ratio", ratio(sum.bufHits, sum.bufHits+sum.pages), n, "ioBufferHits / (ioBufferHits + ioPages)")
	rep.metric("plan.samples", "count", per(sum.samples), n, fromStats+"plan.samples")

	batches := delta["imgrn_batch_requests_total"]
	rep.metric("batch.groups_per_batch", "count", ratio(delta["imgrn_batch_groups_total"], batches), int(batches),
		"imgrn_batch_groups_total / imgrn_batch_requests_total; absent without /query-batch traffic")
	rep.metric("batch.item_ms", "ms", traced.batchItems.mean(), len(traced.batchItems.ms), "per-item frame stats.totalSeconds")

	stage := func(name string) (float64, int) {
		c := delta[fmt.Sprintf(`imgrn_stage_seconds_count{stage="%s"}`, name)]
		return ratio(1e3*delta[fmt.Sprintf(`imgrn_stage_seconds_sum{stage="%s"}`, name)], c), int(c)
	}
	v, c := stage("scatter")
	rep.metric("shard.scatter_ms", "ms", v, c, `imgrn_stage_seconds{stage="scatter"}; absent where no in-process scatter runs`)
	mergeSelf, ok := t.selfOf("shard.merge", reads)
	if !ok {
		mergeSelf = math.NaN()
	}
	rep.metric("shard.merge_ms", "ms", mergeSelf, reads, "replay span self time around core.MergeAnswerRuns")
	if v, c := stage("merge"); c > 0 {
		rep.note(fmt.Sprintf("  imgrn_stage_seconds{stage=\"merge\"}: %.4f ms over %d merges", v, c))
	}

	rpcs := delta[`imgrn_rpc_requests_total{outcome="ok"}`] + delta[`imgrn_rpc_requests_total{outcome="error"}`] +
		delta[`imgrn_rpc_requests_total{outcome="timeout"}`]
	const noRPC = "; absent without cluster RPCs"
	rep.metric("cluster.rpc_ms", "ms", ratio(1e3*delta["imgrn_rpc_seconds_sum"], delta["imgrn_rpc_seconds_count"]), int(rpcs), "imgrn_rpc_seconds mean"+noRPC)
	perReq := math.NaN()
	if rpcs > 0 {
		perReq = ratio(rpcs, float64(traced.counts.Succeeded))
	}
	rep.metric("cluster.rpcs_per_query", "count", perReq, traced.counts.Succeeded, "imgrn_rpc_requests_total / requests served"+noRPC)
	rep.metric("cluster.hedge_rate", "ratio", ratio(delta["imgrn_rpc_hedges_total"], rpcs), int(rpcs), "imgrn_rpc_hedges_total / RPCs"+noRPC)
	hedgeWins := ratio(delta["imgrn_rpc_hedge_wins_total"], delta["imgrn_rpc_hedges_total"])
	if rpcs > 0 && math.IsNaN(hedgeWins) {
		hedgeWins = 0 // no hedge launched
	}
	rep.metric("cluster.hedge_win_rate", "ratio", hedgeWins, int(delta["imgrn_rpc_hedges_total"]), "imgrn_rpc_hedge_wins_total / hedges"+noRPC)
	rep.metric("cluster.retry_rate", "ratio", ratio(delta["imgrn_rpc_retries_total"], rpcs), int(rpcs), "imgrn_rpc_retries_total / RPCs"+noRPC)

	acked := float64(len(traced.write.ms))
	const noWAL = "; absent without durable writes"
	rep.metric("wal.fsyncs_per_write", "count", ratio(delta["imgrn_wal_fsyncs_total"], acked), int(acked), "imgrn_wal_fsyncs_total over both replicas / writes"+noWAL)
	rep.metric("wal.bytes_per_write", "bytes", ratio(delta["imgrn_wal_append_bytes_total"], acked), int(acked), "imgrn_wal_append_bytes_total over both replicas / writes"+noWAL)
	walMs := math.NaN()
	if writes > 0 {
		walMs = t.meanDuration("wal.append_sync")
	}
	rep.metric("wal.append_sync_ms", "ms", walMs, writes, "replay span around wal.EncodeAddMatrix + Writer.Append + Sync, scratch log, fsync on"+noWAL)
	ckpt, lastMs := math.NaN(), math.NaN()
	if len(d.stores) > 0 {
		ckpt = delta["imgrn_snapshot_checkpoints_total"]
		lastMs = ratio(gaugeOf(after, "imgrn_snapshot_last_duration_ms"), float64(len(d.stores)))
	}
	rep.metric("snapshot.checkpoints", "count", ckpt, len(d.stores), "imgrn_snapshot_checkpoints_total over both replicas in the traced window"+noWAL)
	rep.metric("snapshot.checkpoint_ms", "ms", lastMs, len(d.stores), "imgrn_snapshot_last_duration_ms, mean over replicas"+noWAL)

	p50, _, _ := traced.overhead.quantiles()
	rep.metric("server.overhead_ms", "ms", p50, len(traced.overhead.ms), "median of round trip minus stats.totalSeconds")
	encode, ok := t.selfOf("server.encode", reads)
	if !ok {
		encode = math.NaN()
	}
	rep.metric("server.encode_ms", "ms", encode, reads, "replay span around json.Marshal of the reply")
	rep.metric("server.shed", "count", delta["imgrn_requests_shed_total"], traced.counts.Attempted, "imgrn_requests_shed_total")

	_, late, level := traced.late.quantiles()
	rep.metric("gen.late_p99_ms", "ms", late, len(traced.late.ms), fmt.Sprintf("p%.1f of the generator's release lateness", level))
	rep.metric("gen.wait_ms", "ms", traced.wait.mean(), len(traced.wait.ms), "mean time an arrival waited in the generator for a connection")
	u50, _, _ := untraced.query.quantiles()
	t50, _, _ := traced.query.quantiles()
	rep.metric("trace.overhead_ms", "ms", t50-u50, len(traced.query.ms),
		fmt.Sprintf("traced minus untraced query p50 (%.3f - %.3f ms)", t50, u50))

	rep.note(fmt.Sprintf("replay: %d reads and %d writes; mean self time per replayed request:", reads, writes))
	for _, l := range t.summary(reads + writes) {
		rep.note(fmt.Sprintf("  %-18s %9.4f ms over %d spans", l.name, l.ms, l.n))
	}
}
