// Package telemetry is the unified observability layer of the KAR
// reproduction: a zero-dependency metrics registry (counters, gauges,
// fixed-bucket histograms, all labelled) plus a structured
// control-plane event log with bounded retention (events.go) and a
// cross-run Collector (collector.go) that merges per-world registries
// into one exposition.
//
// Determinism contract: metrics are timestamp-free and events are
// stamped on the simulation's *virtual* clock, never the wall clock,
// so two runs with the same seed produce byte-identical dumps. All
// merge operations are commutative (counters, histogram buckets and
// gauges add; integral observations keep float sums exact), which
// makes the merged exposition independent of the order in which
// parallel `-workers` goroutines finish.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/slab"
)

// Label is one metric dimension.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing integer metric. Safe for
// concurrent use. It is its value word alone: a series' labels live in
// its family's keyed index, so an unread block of n counters is 8n bytes.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float metric. Safe for concurrent use.
// Like Counter, it is its value word alone.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram ("le" semantics: a
// sample lands in the first bucket whose upper bound is >= the value).
// Safe for concurrent use. Observations should be integral (hop
// counts, nanoseconds) to keep merged sums exact and dumps
// byte-deterministic.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
}

// HopBuckets suits hop-count distributions (path stretch): the
// Net15/RNP shortest paths sit at 4-7 hops, deflection walks wander
// toward the 64-hop TTL.
var HopBuckets = []float64{2, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// LatencyBucketsUs suits one-way latencies observed in microseconds.
var LatencyBucketsUs = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// NumBuckets returns the number of buckets including the implicit
// +Inf bucket. Bounds are immutable after construction, so this and
// BucketFor need no lock.
func (h *Histogram) NumBuckets() int { return len(h.bounds) + 1 }

// BucketFor returns the index of the bucket v falls into.
func (h *Histogram) BucketFor(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Merge folds pre-bucketed samples in under one lock: counts must be
// indexed as by BucketFor, n their total, sum their value sum. The
// result is byte-identical to observing the samples one at a time as
// long as the float sums involved are exact — true for the data
// plane, which observes only integral values (whole hops, whole
// microseconds); callers with fractional samples should use Observe.
func (h *Histogram) Merge(counts []int64, n int64, sum float64) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	h.count += n
	h.sum += sum
	for i, c := range counts {
		h.counts[i] += c
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket that contains it, in the manner of
// Prometheus's histogram_quantile. It returns NaN for an empty
// histogram; samples in the +Inf bucket resolve to the highest finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// RebuildHistogram reconstructs a standalone histogram from exported
// bucket state (e.g. a Snapshot, or several snapshots whose counts
// were summed), so quantiles can be computed over merged data. counts
// must have len(bounds)+1 entries, the last being the +Inf bucket.
func RebuildHistogram(bounds []float64, counts []int64, count int64, sum float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
		count:  count,
		sum:    sum,
	}
	copy(h.counts, counts)
	return h
}

// family groups every labelled series of one metric name.
type family struct {
	name   string
	kind   kind
	bounds []float64 // histograms only
	// series is the keyed view — label-set key → the series' labels
	// and its *Counter, *Gauge or *Histogram — made on the family's
	// first keyed insert. It is the only place a series' labels live.
	series map[string]*series
	// pending holds what has been registered but not yet keyed, in
	// registration order. materialise moves it into series; nothing
	// else reads it except Merge and the unfiltered SumCounter, which
	// need no key. It starts in first: a family's first block is inline.
	pending []block
	first   [1]block
}

// series is one keyed series: its sorted label set, base labels
// included, and its cell.
type series struct {
	labels []Label
	cell   any
	// merged is the number of the last Merge that folded a cell into
	// this series (see Registry.merges): a second fold under the same
	// number is a label set the merged registry holds twice.
	merged uint64
}

// lazyMax bounds how many single series an unkeyed family holds, which
// every further registration scans: past it the family is keyed and
// lookups go through the map.
const lazyMax = 8

// block is one registration whose label sets and keys have not been
// built: a slab of cells and the labels of each. A CounterVec/GaugeVec
// block names cell i by labels(i, dst); a Counter/Gauge/Histogram is a
// block of one, named by kv, the caller's copied pairs. Exactly one of
// counters, gauges and hists is set.
type block struct {
	labels   func(i int, dst []string) []string
	kv       []string
	counters []Counter
	gauges   []Gauge
	hists    []Histogram
}

// pairs appends the key/value pairs of cell i to dst.
func (b *block) pairs(i int, dst []string) []string {
	if b.labels == nil {
		return append(dst, b.kv...)
	}
	return b.labels(i, dst)
}

// size returns the number of cells in the block.
func (b *block) size() int { return len(b.counters) + len(b.gauges) + len(b.hists) }

// cell returns cell i of the block.
func (b *block) cell(i int) any {
	switch {
	case b.counters != nil:
		return &b.counters[i]
	case b.gauges != nil:
		return &b.gauges[i]
	default:
		return &b.hists[i]
	}
}

// Registry holds metric families. Series registration is idempotent:
// asking for the same (name, labels) twice returns the same handle.
// Safe for concurrent use; hot paths should cache handles.
//
// Registration builds no label set. Counter/Gauge/Histogram return one
// cell and note the caller's key/value pairs; CounterVec/GaugeVec hand
// back a contiguous slab of n cells and record only the block. The
// sorted label sets and keys are built, into one series map per
// family, on the family's first keyed read: any exposition or Snapshot;
// CounterValue; a filtered SumCounter; or a registration the unkeyed
// family cannot answer (one on a family holding a block, or its
// lazyMax+1-th single series). Merging a registry into another names
// its cells into reused buffers and keys only the target, so a world
// that is built, run, folded into a Collector and read back through
// unfiltered SumCounter totals never builds them at all. Nor does it
// allocate per series: family records, single Counter and Gauge cells
// and their key/value copies are cut from per-registry chunks that
// double as they fill; a family's first block is inline.
type Registry struct {
	mu       sync.Mutex
	base     []Label // applied to every series
	families map[string]*family
	helps    map[string]string // HELP text by family name
	merges   uint64            // Merges into this registry so far

	familySlab  []family
	counterSlab []Counter
	gaugeSlab   []Gauge
	kvSlab      []string
	seriesSlab  []series
	labelSlab   []Label
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithBaseLabels attaches constant labels (key/value pairs) to every
// series the registry creates — e.g. the world's deflection policy.
func WithBaseLabels(kv ...string) RegistryOption {
	return func(r *Registry) { r.base = pairs(r.base, kv) }
}

// NewRegistry builds an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{families: make(map[string]*family), helps: make(map[string]string)}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// pairs converts a flat k,v,k,v slice into labels, appended to dst.
func pairs(dst []Label, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	for i := 0; i < len(kv); i += 2 {
		dst = append(dst, Label{Key: kv[i], Value: kv[i+1]})
	}
	return dst
}

// sortLabels sorts a label set by key in place. Label sets are a
// handful of entries, so an insertion sort beats the reflective
// sort.Slice (and is stable, as sort.Slice is at this size).
func sortLabels(ls []Label) []Label {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	return ls
}

// labelSet merges base labels with call labels, sorted by key.
func (r *Registry) labelSet(kv []string) []Label {
	return sortLabels(pairs(append(make([]Label, 0, len(r.base)+len(kv)/2), r.base...), kv))
}

// appendKey appends the serialised key of a sorted label set to dst.
func appendKey(dst []byte, ls []Label) []byte {
	for _, l := range ls {
		dst = append(dst, l.Key...)
		dst = append(dst, 0)
		dst = append(dst, l.Value...)
		dst = append(dst, 0)
	}
	return dst
}

// namer builds label sets and keys into buffers it reuses from one
// series to the next, so naming a block cell allocates nothing once
// they have grown; what it returns is overwritten by its next call.
type namer struct {
	kv  []string
	ls  []Label
	key []byte
}

// name returns the sorted label set of cell i of b, base labels
// included, and its key.
func (n *namer) name(base []Label, b *block, i int) ([]Label, []byte) {
	n.kv = b.pairs(i, n.kv[:0])
	n.ls = sortLabels(pairs(append(n.ls[:0], base...), n.kv))
	n.key = appendKey(n.key[:0], n.ls)
	return n.ls, n.key
}

func (r *Registry) getFamily(name string, k kind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &slab.Cut(&r.familySlab, 1)[0]
		f.name, f.kind, f.bounds, f.pending = name, k, bounds, f.first[:0]
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, k, f.kind))
	}
	return f
}

// newCell makes an unregistered series of the family's kind. A
// histogram shares the family's bounds, which nothing writes. The
// caller holds r.mu.
func (r *Registry) newCell(f *family) any {
	switch f.kind {
	case kindCounter:
		return &slab.Cut(&r.counterSlab, 1)[0]
	case kindGauge:
		return &slab.Cut(&r.gaugeSlab, 1)[0]
	default:
		return &Histogram{bounds: f.bounds, counts: make([]int64, len(f.bounds)+1)}
	}
}

// file is the one keyed insert: it files cell in f under key, labelled
// with a copy of ls — a sorted label set that already carries its base
// labels — and returns the new series. The caller holds r.mu and has
// found key absent; key and ls may be a namer's buffers.
func (r *Registry) file(f *family, key []byte, ls []Label, cell any) *series {
	s := &slab.Cut(&r.seriesSlab, 1)[0]
	s.labels, s.cell = append(slab.Cut(&r.labelSlab, len(ls))[:0], ls...), cell
	f.reserve(1)
	f.series[string(key)] = s
	return s
}

// seriesAt returns f's series under key, filing one labelled ls with a
// new cell when f has none. The caller holds r.mu.
func (r *Registry) seriesAt(f *family, key []byte, ls []Label) *series {
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	return r.file(f, key, ls, r.newCell(f))
}

// duplicate is the panic of a (name, labels) pair registered twice.
func (f *family) duplicate(ls []Label) string {
	return fmt.Sprintf("telemetry: metric %q registered twice with labels %v", f.name, ls)
}

// materialise builds the label set and key of every pending cell and
// files both in f.series, after which the family is indistinguishable
// from one registered eagerly. The caller holds r.mu; lanes may be
// incrementing the cells meanwhile, and materialising writes nothing
// in a cell.
func (r *Registry) materialise(f *family) {
	n := 0
	for i := range f.pending {
		n += f.pending[i].size()
	}
	f.reserve(n)
	var nm namer
	for bi := range f.pending {
		b := &f.pending[bi]
		for i := range b.size() {
			ls, key := nm.name(r.base, b, i)
			if _, ok := f.series[string(key)]; ok {
				panic(f.duplicate(ls))
			}
			r.file(f, key, ls, b.cell(i))
		}
	}
	f.pending = nil
}

// reserve makes the family's keyed index, sized for n series, if it
// has none: a family keyed whole is filed without growing its map.
func (f *family) reserve(n int) {
	if f.series == nil && n > 0 {
		f.series = make(map[string]*series, n)
	}
}

// single is the registration path of Counter, Gauge and Histogram:
// get-or-create by the caller's key/value pairs. While the family is
// unkeyed and holds only single-series blocks, fewer than lazyMax, the
// series is found among them or filed as a new one by comparing pairs
// — no label set, key or map insert; otherwise the family is
// materialised and the lookup is keyed.
func (r *Registry) single(name string, k kind, bounds []float64, kv []string) any {
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, k, bounds)
	if len(f.series) == 0 && f.singlesOnly() {
		for i := range f.pending {
			if b := &f.pending[i]; samePairs(b.kv, kv) {
				return b.cell(0)
			}
		}
		if len(f.pending) < lazyMax {
			// kv is the caller's variadic slice: copied, it may stay on
			// the caller's stack and be reused.
			b := block{kv: append(slab.Cut(&r.kvSlab, len(kv))[:0], kv...)}
			switch k {
			case kindCounter:
				b.counters = slab.Cut(&r.counterSlab, 1)
			case kindGauge:
				b.gauges = slab.Cut(&r.gaugeSlab, 1)
			default:
				b.hists = []Histogram{{bounds: f.bounds, counts: make([]int64, len(f.bounds)+1)}}
			}
			f.pending = append(f.pending, b)
			return b.cell(0)
		}
	}
	r.materialise(f)
	ls := r.labelSet(kv)
	return r.seriesAt(f, appendKey(nil, ls), ls).cell
}

// singlesOnly reports whether every pending block is a single series.
func (f *family) singlesOnly() bool {
	for i := range f.pending {
		if f.pending[i].labels != nil {
			return false
		}
	}
	return true
}

// samePairs reports whether two key/value lists name one label set:
// the same pairs, in any order. (Equal lengths and every pair of a
// present in b decide it, a label set repeating no pair.)
func samePairs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
next:
	for i := 0; i < len(a); i += 2 {
		for j := 0; j < len(b); j += 2 {
			if a[i] == b[j] && a[i+1] == b[j+1] {
				continue next
			}
		}
		return false
	}
	return true
}

// Help sets the family's HELP text. The family need not exist yet:
// the text is kept by name and emitted once the first series appears.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = text
}

// Counter returns (creating if absent) the counter for name and the
// given label key/value pairs.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.single(name, kindCounter, nil, kv).(*Counter)
}

// Gauge returns (creating if absent) the gauge for name and labels.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.single(name, kindGauge, nil, kv).(*Gauge)
}

// Histogram returns (creating if absent) the histogram for name and
// labels. bounds are sorted upper bucket bounds, which the caller must
// not modify afterwards; nil takes HopBuckets. The first registration
// of a family fixes its bucket layout.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if len(bounds) == 0 {
		bounds = HopBuckets
	}
	return r.single(name, kindHistogram, bounds, kv).(*Histogram)
}

// CounterVec registers n counters of one family as a block and returns
// them as one contiguous slab; labels(i, dst) appends cell i's label
// key/value pairs to dst and returns it. It is called only when the
// block is named — its family first read by label, or its registry
// merged (see Registry) — into a buffer the registry reuses, so it
// should append without allocating; it must stay valid, and keep
// giving the same labels, for the life of the registry. Registering a
// (name, labels) pair twice, here or through Counter, panics when the
// block is materialised or merged.
func (r *Registry) CounterVec(name string, n int, labels func(i int, dst []string) []string) []Counter {
	cells := make([]Counter, n)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, kindCounter, nil)
	f.pending = append(f.pending, block{labels: labels, counters: cells})
	return cells
}

// GaugeVec is CounterVec for gauges.
func (r *Registry) GaugeVec(name string, n int, labels func(i int, dst []string) []string) []Gauge {
	cells := make([]Gauge, n)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, kindGauge, nil)
	f.pending = append(f.pending, block{labels: labels, gauges: cells})
	return cells
}

// CounterValue reads a counter without creating it (0 when absent).
func (r *Registry) CounterValue(name string, kv ...string) int64 {
	key := appendKey(nil, r.labelSet(kv))
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindCounter {
		return 0
	}
	r.materialise(f)
	if s, ok := f.series[string(key)]; ok {
		return s.cell.(*Counter).Value()
	}
	return 0
}

// SumCounter sums a counter family across every series whose label set
// contains all the given key/value pairs (no pairs = whole family).
// The whole-family sum needs no labels and leaves the family unkeyed.
func (r *Registry) SumCounter(name string, kv ...string) int64 {
	match := pairs(nil, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindCounter {
		return 0
	}
	var sum int64
	if len(match) > 0 {
		r.materialise(f)
	}
	for _, b := range f.pending {
		for i := range b.counters {
			sum += b.counters[i].Value()
		}
	}
	for _, s := range f.series {
		if labelsContain(s.labels, match) {
			sum += s.cell.(*Counter).Value()
		}
	}
	return sum
}

// DropLabel removes every series whose label set carries key=value,
// and every family it leaves without a series, and returns the number
// of series removed.
func (r *Registry) DropLabel(key, value string) int {
	want := []Label{{Key: key, Value: value}}
	r.mu.Lock()
	defer r.mu.Unlock()
	dropped := 0
	for name, f := range r.families {
		r.materialise(f)
		n := len(f.series)
		for k, s := range f.series {
			if labelsContain(s.labels, want) {
				delete(f.series, k)
			}
		}
		if len(f.series) < n {
			dropped += n - len(f.series)
			if len(f.series) == 0 {
				delete(r.families, name)
			}
		}
	}
	return dropped
}

func labelsContain(ls, want []Label) bool {
	for _, w := range want {
		found := false
		for _, l := range ls {
			if l == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Merge folds another registry's current state into r: counters,
// gauges and histogram buckets add. Addition commutes, so merging
// per-worker shard registries in any completion order yields the same
// result. o's series carry o's base labels, and those key r's series
// as they are — r's own base labels are not applied to series that
// bring theirs.
//
// Merge holds o.mu, then r.mu, for the whole fold: the one place two
// registry locks are held, always source before target, so two
// registries must never be merged into each other concurrently (a
// Collector's registry is only ever a target). It walks o's keyed
// series and pending blocks in place, naming each cell into buffers
// reused across the merge, and finds r's series without building a
// key string: merging a registry whose series r already holds
// allocates nothing per series. o is left unkeyed. A (name, labels)
// pair that o holds twice panics, as it would when o is materialised.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, h := range o.helps {
		if _, ok := r.helps[n]; !ok {
			r.helps[n] = h
		}
	}
	r.merges++
	var nm namer
	for name, of := range o.families {
		n := len(of.series)
		for i := range of.pending {
			n += of.pending[i].size()
		}
		if n == 0 {
			continue
		}
		f := r.getFamily(name, of.kind, of.bounds)
		f.reserve(n)
		for _, s := range of.series {
			nm.key = appendKey(nm.key[:0], s.labels)
			r.fold(f, nm.key, s.labels, s.cell)
		}
		for bi := range of.pending {
			b := &of.pending[bi]
			for i := range b.size() {
				ls, key := nm.name(o.base, b, i)
				r.fold(f, key, ls, b.cell(i))
			}
		}
	}
}

// fold adds src, a merged registry's cell labelled ls and keyed key,
// into f's series of that key, filing one with a fresh cell when f has
// none. The caller holds r.mu and the source registry's mutex.
func (r *Registry) fold(f *family, key []byte, ls []Label, src any) {
	s := r.seriesAt(f, key, ls)
	if s.merged == r.merges {
		panic(f.duplicate(ls))
	}
	s.merged = r.merges
	switch c := src.(type) {
	case *Counter:
		s.cell.(*Counter).Add(c.Value())
	case *Gauge:
		s.cell.(*Gauge).Add(c.Value())
	case *Histogram:
		c.mu.Lock()
		s.cell.(*Histogram).Merge(c.counts, c.count, c.sum)
		c.mu.Unlock()
	}
}

// seriesSnap is one frozen series used by the exposition.
type seriesSnap struct {
	labels []Label
	value  int64   // counter value / histogram count
	fvalue float64 // gauge value / histogram sum
	counts []int64 // histogram buckets
}

type familySnap struct {
	name   string
	help   string
	kind   kind
	bounds []float64
	series []seriesSnap // sorted by label key
}

// snapshotFamilies freezes the registry, sorted by family name and
// series label key, for deterministic iteration.
func (r *Registry) snapshotFamilies() []familySnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]familySnap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		r.materialise(f)
		fs := familySnap{name: f.name, help: r.helps[n], kind: f.kind, bounds: f.bounds}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch c := s.cell.(type) {
			case *Counter:
				fs.series = append(fs.series, seriesSnap{labels: s.labels, value: c.Value()})
			case *Gauge:
				fs.series = append(fs.series, seriesSnap{labels: s.labels, fvalue: c.Value()})
			case *Histogram:
				c.mu.Lock()
				fs.series = append(fs.series, seriesSnap{
					labels: s.labels,
					value:  c.count,
					fvalue: c.sum,
					counts: append([]int64(nil), c.counts...),
				})
				c.mu.Unlock()
			}
		}
		out = append(out, fs)
	}
	return out
}
