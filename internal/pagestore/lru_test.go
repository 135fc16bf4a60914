package pagestore

import (
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// lruModel is the reference LRU: the cached pages in recency order, most
// recent first.
type lruModel struct {
	capacity int
	order    []PageID
}

func (m *lruModel) touch(id PageID) bool {
	for i, p := range m.order {
		if p == id {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = id
			return true
		}
	}
	m.order = append([]PageID{id}, m.order...)
	if len(m.order) > m.capacity {
		m.order = m.order[:m.capacity]
	}
	return false
}

// TestLRUMatchesModel: on random touch sequences over a page universe a
// few times the capacity — so eviction at capacity happens constantly —
// the slice-linked LRU reports exactly the model's hit/miss sequence,
// holds exactly the model's pages, and starts over cleanly after reset.
func TestLRUMatchesModel(t *testing.T) {
	rng := randgen.New(7)
	for _, capacity := range []int{1, 2, 3, 5, 8} {
		c := newLRU(capacity)
		for round := 0; round < 2; round++ {
			m := &lruModel{capacity: capacity}
			for step := 0; step < 4000; step++ {
				id := PageID(1 + rng.Intn(3*capacity))
				if got, want := c.touch(id), m.touch(id); got != want {
					t.Fatalf("capacity %d round %d step %d page %d: hit = %v, model says %v",
						capacity, round, step, id, got, want)
				}
				if len(c.index) != len(m.order) {
					t.Fatalf("capacity %d step %d: %d pages cached, model holds %d",
						capacity, step, len(c.index), len(m.order))
				}
			}
			// Walk the recency list from the head: it must be the model's
			// order exactly.
			i := c.head
			for k, want := range m.order {
				if i < 0 || c.slots[i].id != want {
					t.Fatalf("capacity %d: recency position %d differs from the model", capacity, k)
				}
				i = c.slots[i].next
			}
			if i >= 0 {
				t.Fatalf("capacity %d: recency list longer than the model's", capacity)
			}
			c.reset()
		}
	}
}

// TestReaderTouchAllocs: once a reader's buffer is full, a touch —
// hit or evicting miss — allocates nothing.
func TestReaderTouchAllocs(t *testing.T) {
	acc := New(DefaultPageSize, 16)
	r := acc.NewReader()
	for id := PageID(1); id <= 64; id++ {
		r.Touch(id)
	}
	id := PageID(0)
	allocs := testing.AllocsPerRun(1000, func() {
		id = id%64 + 1
		r.Touch(id)
	})
	if allocs != 0 {
		t.Errorf("Reader.Touch allocates %v times per call at capacity, want 0", allocs)
	}
}
