// Package sketch implements one-pass approximate n-gram counting in
// fixed counter memory: a count-min sketch per order with a
// concurrency-safe conservative update, and one heavy-hitters top-k
// heap shared by all orders.
//
// The design follows Lemire & Kaser's "One-Pass, One-Hash n-Gram
// Statistics Estimation": a live document stream is reduced to hashed
// counters in a single pass, trading exactness for fixed memory and
// immediate queryability, while the exact MapReduce pipeline
// periodically reconciles the estimates (see ngramstats.StreamIngester).
//
// # Guarantees
//
// Estimates are one-sided: an estimate is never below the true count,
// even under concurrent updates. With width w = ceil(e/ε) and depth
// d = ceil(ln(1/δ)), the estimate of any key exceeds its true count by
// more than ε·N (N = total counted occurrences of the key's order)
// with probability at most δ.
//
// # Conservative update, lock-free
//
// The classic conservative update (raise every row only to min+n) is
// not sound under concurrent updates: two updaters can observe stale
// minima and lose an increment between them, breaking the one-sided
// guarantee. Update therefore treats row 0 as the ground-truth row — it
// takes a full atomic add, so its cell never undercounts — and each
// remaining row keeps an atomic running maximum of row-0 post-add
// values. The row-0 add is the linearization point: once it completes,
// its post-add value bounds the key's true count from above, and every
// deeper row is raised to at least that value before Update returns, so
// estimates stay one-sided under any interleaving. The conservative win
// is that a deeper cell records the bound of the heaviest key hashing
// into it instead of the sum of all of them, which is what plain
// count-min addition would write.
package sketch

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Params sizes a sketch group from an accuracy target.
type Params struct {
	// Epsilon is the relative error target ε: estimates exceed true
	// counts by at most ε·N with probability 1−δ. Default 1e-4.
	Epsilon float64
	// Delta is the failure probability δ. Default 0.01.
	Delta float64
	// Orders is the number of n-gram orders sketched (1..Orders), one
	// sketch per order. Default 5.
	Orders int
	// TopK is how many heavy hitters the group tracks. Default 128.
	TopK int
}

// withDefaults returns p with zero fields replaced by the defaults.
func (p Params) withDefaults() Params {
	if p.Epsilon <= 0 {
		p.Epsilon = 1e-4
	}
	if p.Delta <= 0 {
		p.Delta = 0.01
	}
	if p.Orders <= 0 {
		p.Orders = 5
	}
	if p.TopK <= 0 {
		p.TopK = 128
	}
	return p
}

func (p Params) validate() error {
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		return fmt.Errorf("sketch: epsilon %v outside (0, 1)", p.Epsilon)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("sketch: delta %v outside (0, 1)", p.Delta)
	}
	if p.Orders < 1 {
		return fmt.Errorf("sketch: orders %d < 1", p.Orders)
	}
	return nil
}

// Width returns the counters per row: ceil(e/ε).
func (p Params) Width() int { return int(math.Ceil(math.E / p.Epsilon)) }

// Depth returns the rows per sketch: ceil(ln(1/δ)).
func (p Params) Depth() int {
	d := int(math.Ceil(math.Log(1 / p.Delta)))
	if d < 1 {
		d = 1
	}
	return d
}

// Sketch is one order's count-min sketch. Update and Estimate are safe
// for any number of concurrent callers and take no locks.
type Sketch struct {
	width, depth int
	// cells holds depth rows of width counters each, row-major; row 0
	// is the ground-truth add row. All access is atomic.
	cells []uint64
	// n is the total count of updates folded in (the N of the ε·N
	// error bound).
	n atomic.Int64
}

// NewSketch returns an empty width×depth sketch.
func NewSketch(width, depth int) *Sketch {
	if width < 1 {
		width = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Sketch{width: width, depth: depth, cells: make([]uint64, width*depth)}
}

// fnv64a is the FNV-1a hash of key: unseeded and allocation-free, so
// two groups with the same parameters hash a key to the same cells and
// Merge can add them element-wise.
func fnv64a(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// splitmix64 finalizes h into an independent second hash for the
// Kirsch–Mitzenmacher double-hashing scheme.
func splitmix64(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func (s *Sketch) cell(h1, h2 uint64, row int) *uint64 {
	idx := (h1 + uint64(row)*h2) % uint64(s.width)
	return &s.cells[row*s.width+int(idx)]
}

// Update folds n occurrences of key into the sketch and returns the
// key's new estimate. It is lock-free: contended rows retry a CAS that
// always either raises the cell or observes another update's progress.
func (s *Sketch) Update(key []byte, n int64) int64 {
	h1 := fnv64a(key)
	h2 := splitmix64(h1) | 1
	// Row 0: full atomic add. Its post-add value upper-bounds the key's
	// true count and is what the deeper rows are raised to.
	v0 := atomic.AddUint64(s.cell(h1, h2, 0), uint64(n))
	for row := 1; row < s.depth; row++ {
		c := s.cell(h1, h2, row)
		for {
			cur := atomic.LoadUint64(c)
			if cur >= v0 {
				break // already covers our row-0 bound
			}
			if atomic.CompareAndSwapUint64(c, cur, v0) {
				break
			}
		}
	}
	s.n.Add(n)
	// Every row is now at least v0, and row 0 was exactly v0 at the add,
	// so v0 is the tightest estimate this update can prove.
	return int64(v0)
}

// Estimate returns the key's estimated count: at least the true count,
// and within ε·N of it with probability 1−δ.
func (s *Sketch) Estimate(key []byte) int64 {
	h1 := fnv64a(key)
	h2 := splitmix64(h1) | 1
	est := atomic.LoadUint64(s.cell(h1, h2, 0))
	for row := 1; row < s.depth; row++ {
		if v := atomic.LoadUint64(s.cell(h1, h2, row)); v < est {
			est = v
		}
	}
	return int64(est)
}

// N returns the total count of occurrences folded in.
func (s *Sketch) N() int64 { return s.n.Load() }

// Bytes returns the counter memory of the sketch.
func (s *Sketch) Bytes() int64 { return int64(len(s.cells)) * 8 }

// merge folds o's counters in by element-wise atomic addition. Addition
// preserves one-sidedness: each cell becomes at least the sum of the
// per-sketch lower bounds. Widths and depths must match.
func (s *Sketch) merge(o *Sketch) {
	for i := range s.cells {
		if v := atomic.LoadUint64(&o.cells[i]); v != 0 {
			atomic.AddUint64(&s.cells[i], v)
		}
	}
	s.n.Add(o.n.Load())
}

// Group is a set of per-order sketches plus one heavy-hitters heap —
// the unit the StreamIngester rotates at reconcile boundaries.
type Group struct {
	params Params
	width  int
	depth  int
	orders []*Sketch // orders[i] sketches (i+1)-grams
	top    *TopK
	docs   atomic.Int64
}

// NewGroup returns an empty group sized from p (defaults applied).
func NewGroup(p Params) (*Group, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &Group{
		params: p,
		width:  p.Width(),
		depth:  p.Depth(),
		orders: make([]*Sketch, p.Orders),
		top:    NewTopK(p.TopK),
	}
	for i := range g.orders {
		g.orders[i] = NewSketch(g.width, g.depth)
	}
	return g, nil
}

// Params returns the group's (defaulted) parameters.
func (g *Group) Params() Params { return g.params }

// Update folds n occurrences of an order-length key in and offers the
// new estimate to the heavy-hitters heap. Orders outside 1..Orders are
// ignored (the caller bounds windows by the sketched orders).
func (g *Group) Update(order int, key []byte, n int64) {
	if order < 1 || order > len(g.orders) {
		return
	}
	est := g.orders[order-1].Update(key, n)
	g.top.Offer(key, order, est)
}

// Estimate returns the estimated count of an order-length key, and
// false for orders the group does not sketch.
func (g *Group) Estimate(order int, key []byte) (int64, bool) {
	if order < 1 || order > len(g.orders) {
		return 0, false
	}
	return g.orders[order-1].Estimate(key), true
}

// N returns the total occurrences counted at the given order.
func (g *Group) N(order int) int64 {
	if order < 1 || order > len(g.orders) {
		return 0
	}
	return g.orders[order-1].N()
}

// Top returns up to k heavy hitters, largest estimate first. k <= 0
// returns all tracked.
func (g *Group) Top(k int) []Entry { return g.top.Items(k) }

// AddDocs counts documents folded into the group.
func (g *Group) AddDocs(n int64) { g.docs.Add(n) }

// Docs returns the documents folded in.
func (g *Group) Docs() int64 { return g.docs.Load() }

// Bytes returns the counter memory of all sketches.
func (g *Group) Bytes() int64 {
	var b int64
	for _, s := range g.orders {
		b += s.Bytes()
	}
	return b
}

// Merge folds o into g (element-wise counter addition, heavy hitters
// re-offered). It is how an aborted reconcile returns its drained delta
// to the live one. The groups must share parameters.
func (g *Group) Merge(o *Group) error {
	if g.params != o.params {
		return fmt.Errorf("sketch: merge of incompatible groups (%+v vs %+v)", g.params, o.params)
	}
	for i := range g.orders {
		g.orders[i].merge(o.orders[i])
	}
	for _, e := range o.top.Items(0) {
		if est, ok := g.Estimate(e.Order, e.Key); ok {
			g.top.Offer(e.Key, e.Order, est)
		}
	}
	g.docs.Add(o.docs.Load())
	return nil
}
