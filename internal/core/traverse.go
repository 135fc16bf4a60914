package core

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/rstar"
)

// The index descent of Figure 4 (lines 2–27), shared by every query path
// (DESIGN.md §14). A solo query descends as a one-member group; a batch
// descends once per γ-group with a liveness bitmask of its members on
// every queued node pair.

// candidatePair is a surviving (source, column, column) gene pair.
type candidatePair struct {
	source     int
	sCol, tCol int
}

// cancelCheckInterval bounds how many node-pair pops the descent performs
// between context checks.
const cancelCheckInterval = 64

// maskWidth is the liveness bitmask width: the maximum number of queries
// one shared descent serves. Larger groups chunk into several descents.
const maskWidth = 64

// travState is one query's part in a descent: the highest-degree query
// gene g_s, its neighbor genes, the bit-vector signatures of the line
// 9–13 admission tests, and where the descent reports to — the query's
// traversal counters (st) and its candidate pairs (pairs).
type travState struct {
	gsGene     gene.ID
	gsF        float64
	neighbors  []gene.ID
	neighborF  []float64 // sorted
	qVfS, qVfT *bitvec.Vector
	qVdS, qVdT *bitvec.Vector

	st    *Stats
	pairs []candidatePair
}

func newTravState(idx *index.Index, q *grn.Graph, st *Stats) *travState {
	b := idx.Bits()
	ts := &travState{st: st}
	gs := q.MaxDegreeVertex()
	ts.gsGene = q.Gene(gs)
	ts.gsF = float64(ts.gsGene)
	ts.qVfS = bitvec.New(b)
	ts.qVfS.Set(bitvec.HashGene(ts.gsGene, b))
	ts.qVfT = bitvec.New(b)
	ts.qVdS = idx.Inverted().Sources(ts.gsGene).Clone()
	ts.qVdT = bitvec.New(b)
	for _, t := range q.Neighbors(gs) {
		tg := q.Gene(t)
		ts.neighbors = append(ts.neighbors, tg)
		ts.neighborF = append(ts.neighborF, float64(tg))
		ts.qVfT.Set(bitvec.HashGene(tg, b))
		ts.qVdT.OrInPlace(idx.Inverted().Sources(tg))
	}
	sort.Float64s(ts.neighborF)
	return ts
}

// sideContainsS reports whether the node's gene-ID MBR range contains the
// member's highest-degree query gene (the s-side range test).
func (ts *travState) sideContainsS(mbr rstar.Rect, geneDim int) bool {
	return mbr.Min[geneDim] <= ts.gsF && ts.gsF <= mbr.Max[geneDim]
}

// anyNeighborIn reports whether some neighbor gene ID lies within the
// node's gene-ID MBR range (the t-side range test) — exact, since gene IDs
// are stored as an index dimension (Section 5.1's (2d+1)-th axis).
func (ts *travState) anyNeighborIn(mbr rstar.Rect, geneDim int) bool {
	lo, hi := mbr.Min[geneDim], mbr.Max[geneDim]
	i := sort.SearchFloat64s(ts.neighborF, lo)
	return i < len(ts.neighborF) && ts.neighborF[i] <= hi
}

// rootAdmissibleFor is the line 9–13 admission test on the root itself.
func rootAdmissibleFor(idx *index.Index, root *rstar.Node, ts *travState) bool {
	f, dsig := idx.NodeSignature(root)
	return ts.qVfS.Intersects(f) && ts.qVfT.Intersects(f) && ts.qVdS.IntersectsAll(dsig, ts.qVdT)
}

// pairItem is one queued node pair plus the liveness mask of the members
// whose admission chain reached it.
type pairItem struct {
	a, b *rstar.Node
	mask uint64
}

// levelFIFOs is the descent queue: one FIFO of node pairs per tree level,
// popped lowest level first. The children of a level-L pair are queued at
// level L−1, so pops come out in (level, insertion) order — depth-first,
// ties in insertion order — without a heap.
type levelFIFOs struct {
	q    [][]pairItem
	head []int
}

func newLevelFIFOs(levels int) *levelFIFOs {
	return &levelFIFOs{q: make([][]pairItem, levels), head: make([]int, levels)}
}

func (f *levelFIFOs) push(level int, it pairItem) { f.q[level] = append(f.q[level], it) }

// pop returns the oldest pair of the lowest non-empty level.
func (f *levelFIFOs) pop() (pairItem, int, bool) {
	for l, q := range f.q {
		h := f.head[l]
		if h == len(q) {
			continue
		}
		it := q[h]
		if h+1 == len(q) {
			// Drained: rewind so the level reuses its backing array.
			f.q[l], f.head[l] = q[:0], 0
		} else {
			f.head[l] = h + 1
		}
		return it, l, true
	}
	return pairItem{}, 0, false
}

// descend is the pairwise index descent of Figure 4 (lines 2–27) for one
// group of queries sharing the descent parameters of p (γ, estimator side,
// ablation switches; see travGroupKey). Every member's admission chain is
// evaluated independently at every entry, so each member gets exactly the
// candidate pairs and traversal counters of a descent of its own; node
// pages are touched once per pop on io, and the pop order is each
// member's own depth-first order. It returns the number of node pairs it
// popped — each member's NodePairsVisited counts only the pops its bit was
// live on — and aborts with ctx.Err() when the context is cancelled.
func descend(ctx context.Context, idx *index.Index, io pagestore.Toucher, p Params, group []*travState) (int, error) {
	d := idx.D()
	geneDim := 2 * d
	nbrs := neighborTable(group)

	root := idx.Tree().Root()
	queue := newLevelFIFOs(root.Level() + 1)

	// Seed with the root paired against itself; admission per member.
	idx.TouchNodeTo(io, root)
	rootMask := uint64(0)
	for bi, m := range group {
		if p.DisableSignatures || rootAdmissibleFor(idx, root, m) {
			rootMask |= 1 << uint(bi)
		}
	}
	if rootMask != 0 {
		queue.push(root.Level(), pairItem{a: root, b: root, mask: rootMask})
	}

	for pops := 0; ; pops++ {
		if pops%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return pops, err
			}
		}
		it, level, ok := queue.pop()
		if !ok {
			return pops, nil
		}
		for ms := it.mask; ms != 0; ms &= ms - 1 {
			group[bits.TrailingZeros64(ms)].st.NodePairsVisited++
		}
		ea, eb := it.a, it.b
		idx.TouchNodeTo(io, ea)
		if eb != ea {
			idx.TouchNodeTo(io, eb)
		}
		if ea.IsLeaf() {
			// Lines 16–21: one shared join of the two leaves serves every
			// live member.
			leafScanGroup(idx, group, nbrs, it.mask, ea, eb,
				d, p.Gamma, p.OneSided, p.DisablePivotPruning)
			continue
		}
		// Lines 22–27: expand child pairs, admission per member.
		for i := 0; i < ea.NumEntries(); i++ {
			ca := ea.Child(i)
			fa, da := idx.NodeSignature(ca)
			sMask := uint64(0)
			for ms := it.mask; ms != 0; ms &= ms - 1 {
				bi := bits.TrailingZeros64(ms)
				m := group[bi]
				// Gene-ID range test: the s-side subtree must contain g_s.
				if !p.DisableGeneRange && !m.sideContainsS(ca.MBR(), geneDim) {
					m.st.NodePairsPruned += eb.NumEntries()
					continue
				}
				if !p.DisableSignatures && !m.qVfS.Intersects(fa) {
					m.st.NodePairsPruned += eb.NumEntries()
					continue
				}
				sMask |= 1 << uint(bi)
			}
			if sMask == 0 {
				continue
			}
			for j := 0; j < eb.NumEntries(); j++ {
				cb := eb.Child(j)
				fb, db := idx.NodeSignature(cb)
				// Lemma 6 depends only on the MBR pair and the group's
				// shared (γ, side): memoize it across members.
				l6 := -1
				cMask := uint64(0)
				for ms := sMask; ms != 0; ms &= ms - 1 {
					bi := bits.TrailingZeros64(ms)
					m := group[bi]
					// Gene-ID range test on the t side.
					if !p.DisableGeneRange && !m.anyNeighborIn(cb.MBR(), geneDim) {
						m.st.NodePairsPruned++
						continue
					}
					// Line 25: gene-name and data-source signature tests.
					if !p.DisableSignatures &&
						(!m.qVfT.Intersects(fb) || !m.qVdS.IntersectsAll(da, m.qVdT, db)) {
						m.st.NodePairsPruned++
						continue
					}
					// Line 25 (cont.): Lemma 6 index pruning.
					if !p.DisableIndexPruning {
						if l6 < 0 {
							l6 = 0
							if index.IndexPrunable(ca.MBR(), cb.MBR(), d, p.Gamma, p.OneSided) {
								l6 = 1
							}
						}
						if l6 == 1 {
							m.st.NodePairsPruned++
							continue
						}
					}
					cMask |= 1 << uint(bi)
				}
				if cMask != 0 {
					queue.push(level-1, pairItem{a: ca, b: cb, mask: cMask})
				}
			}
		}
	}
}

// nbrTable maps every neighbor gene of a group to the mask of the members
// that count it as a neighbor: distinct genes sorted ascending, with the
// masks alongside. A sorted table rather than a dense gene-ID-indexed
// array keeps its size at the query's degree whatever the gene IDs.
type nbrTable struct {
	genes []gene.ID
	masks []uint64
}

func neighborTable(group []*travState) nbrTable {
	var t nbrTable
	for _, m := range group {
		t.genes = append(t.genes, m.neighbors...)
	}
	slices.Sort(t.genes)
	t.genes = slices.Compact(t.genes)
	t.masks = make([]uint64, len(t.genes))
	for bi, m := range group {
		for _, g := range m.neighbors {
			i, _ := slices.BinarySearch(t.genes, g)
			t.masks[i] |= 1 << uint(bi)
		}
	}
	return t
}

// mask returns the members that count g as a neighbor.
func (t nbrTable) mask(g gene.ID) uint64 {
	if i, ok := slices.BinarySearch(t.genes, g); ok {
		return t.masks[i]
	}
	return 0
}

// leafScanGroup runs the leaf-level point-pair checks (lines 16–21) for
// every live member in one merge join of the two leaves' entry keys,
// which the index keeps sorted by (source, gene). Line 19's same-source
// condition is the join key, so only entry pairs of one data source are
// ever formed, and an entry's point is read only for a pair that also
// passes the gene filters: the anchor gene g_s on the a side, a neighbor
// gene on the b side. Per member the surviving pairs and the
// PointPairsChecked/PointPairsPruned counts are exactly those of the
// |ea|×|eb| nested loop; only the order of the pairs differs, which no
// consumer observes (collectSources reduces them to sets). The pivot
// upper bound depends only on the points and the group-uniform γ and
// side, so it is computed once per pair for the whole group.
func leafScanGroup(idx *index.Index, group []*travState, nbrs nbrTable, mask uint64,
	ea, eb *rstar.Node, d int, gamma float64, oneSided, disPivot bool) {
	ka, kb := idx.LeafKeys(ea), idx.LeafKeys(eb)
	na, nb := ka.Len(), kb.Len()
	for i, j := 0, 0; i < na && j < nb; {
		src := ka.Source[i]
		if src < kb.Source[j] {
			i++
			continue
		}
		if src > kb.Source[j] {
			j++
			continue
		}
		i1, j1 := i+1, j+1
		for i1 < na && ka.Source[i1] == src {
			i1++
		}
		for j1 < nb && kb.Source[j1] == src {
			j1++
		}
		for a := i; a < i1; a++ {
			ga := gene.ID(ka.Gene[a])
			aMask := uint64(0)
			for ms := mask; ms != 0; ms &= ms - 1 {
				bi := bits.TrailingZeros64(ms)
				if group[bi].gsGene == ga {
					aMask |= 1 << uint(bi)
				}
			}
			if aMask == 0 {
				continue
			}
			ia := ea.Item(int(ka.Pos[a]))
			_, colA := index.UnpackRef(ia.Ref)
			for b := j; b < j1; b++ {
				bMask := nbrs.mask(gene.ID(kb.Gene[b])) & aMask
				if bMask == 0 {
					continue
				}
				ib := eb.Item(int(kb.Pos[b]))
				_, colB := index.UnpackRef(ib.Ref)
				// Line 20: pivot-based pruning on embedded points, shared.
				pruned := !disPivot &&
					index.PointUpperBound(ia.Point, ib.Point, d, oneSided) <= gamma
				for ms := bMask; ms != 0; ms &= ms - 1 {
					m := group[bits.TrailingZeros64(ms)]
					m.st.PointPairsChecked++
					if pruned {
						m.st.PointPairsPruned++
						continue
					}
					m.pairs = append(m.pairs, candidatePair{source: int(src), sCol: colA, tCol: colB})
				}
			}
		}
		i, j = i1, j1
	}
}
