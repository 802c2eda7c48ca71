// Package discord implements the distance-based anomaly detectors the
// paper evaluates: the brute-force discord search, the HOTSAX heuristic
// (Keogh, Lin, Fu 2005), and the paper's contribution RRA (Rare Rule
// Anomaly), which searches over variable-length grammar-rule intervals.
//
// All three share one early-abandoning z-normalized Euclidean distance
// kernel whose invocation count is the efficiency metric of the paper's
// Table 1 ("number of calls to the distance function").
package discord

import (
	"context"
	"math"

	"grammarviz/internal/timeseries"
	"grammarviz/internal/workspace"
)

// Stats is the immutable per-series precomputation behind the distance
// kernel: prefix sums that give O(1) mean/std for any subsequence. Build
// it once per series with NewStats and share it freely — it is safe for
// concurrent readers, so parallel searches and repeated queries stop
// paying the O(n) rebuild per worker or per call.
type Stats struct {
	ts     []float64
	sum    []float64 // sum[i] = ts[0] + ... + ts[i-1]
	sumSq  []float64
	thresh float64 // flat-subsequence std guard
}

// NewStats builds the prefix-sum statistics of ts. The series is retained
// by reference and must not be modified afterwards.
func NewStats(ts []float64) *Stats {
	s := &Stats{
		ts:     ts,
		sum:    make([]float64, len(ts)+1),
		sumSq:  make([]float64, len(ts)+1),
		thresh: timeseries.DefaultNormThreshold,
	}
	for i, v := range ts {
		s.sum[i+1] = s.sum[i] + v
		s.sumSq[i+1] = s.sumSq[i] + v*v
	}
	return s
}

// Series returns the underlying series (shared, do not modify).
func (s *Stats) Series() []float64 { return s.ts }

// meanInvStd returns the mean and the inverse standard deviation of
// ts[start:start+length]. For near-flat subsequences the inverse std is 0,
// which makes z-normalized values plain mean offsets (all zero) — matching
// timeseries.ZNormalize's flat guard.
func (s *Stats) meanInvStd(start, length int) (mean, invStd float64) {
	n := float64(length)
	mean = (s.sum[start+length] - s.sum[start]) / n
	variance := (s.sumSq[start+length]-s.sumSq[start])/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	std := math.Sqrt(variance)
	if std <= s.thresh {
		return mean, 0
	}
	return mean, 1 / std
}

// engine is one worker's view of a Stats: the shared prefix sums plus a
// private distance-call counter and the search's cancellation state.
// Views are cheap — creating one allocates nothing beyond the struct — so
// every goroutine of a parallel search gets its own and the counters are
// summed when the workers join.
type engine struct {
	st    *Stats
	calls int64

	// prune, when non-nil, is the MINDIST code pre-filter (see
	// codeprune.go): inner loops consult it before paying for a kernel
	// call, and pruned counts the comparisons it skipped. Skipped
	// comparisons do not increment calls — the point of the filter is to
	// lower the Table 1 metric.
	prune  *codePruner
	pruned int64

	// scratch backs the pinned query's z-normalized buffer. Searches
	// attach a pooled workspace.Kernel for the duration of the search so
	// the steady state allocates nothing; an engine used without one
	// (tests, ad-hoc callers) lazily creates a private un-pooled scratch
	// on the first pin.
	scratch *workspace.Kernel

	// Pinned-query state (see pin): the candidate subsequence normalized
	// once, plus the memoized squared cutoff so the per-neighbor kernel
	// pays neither the query normalization nor the cutoff squaring.
	qnorm    []float64
	qfill    int     // qnorm[:qfill] is filled; the rest is extended lazily
	pinStart int
	pinMean  float64 // pinned query moments, for lazy qnorm extension
	pinInv   float64
	pinCut   float64 // last cutoff seen by pinnedDist
	pinLimit float64 // pinCut * pinCut

	// Neighbor-moment memo (see pinnedDist): mean and inverse std of
	// ts[q:q+momLen] per start offset, stamped valid lazily on first
	// touch. meanInvStd pays a sqrt and two divides; one-vs-many searches
	// revisit the same neighbors across candidates, so after the first
	// scan the q-side normalization is three loads. The tables live in
	// the pooled scratch and are invalidated in O(1) (epoch bump) when
	// the pinned length changes.
	momMean  []float64
	momInv   []float64
	momStamp []uint32
	momEpoch uint32
	momLen   int

	// refKernel routes every kernel call through the retained per-element
	// reference implementation (the exactness oracle the equivalence
	// tests and the fuzz target compare against). Never set on the
	// serving path.
	refKernel bool

	ctx   context.Context // nil when the context can never be cancelled
	err   error           // sticky ctx error once observed
	polls int             // countdown to the next ctx poll
}

// cancelPollInterval is how many cancelled() checks pass between two
// actual context polls. Every hot search loop calls cancelled() at least
// once per candidate or per distance call, so cancel-to-return latency is
// bounded by cancelPollInterval loop iterations plus one distance
// computation.
const cancelPollInterval = 256

func (s *Stats) view() *engine { return &engine{st: s} }

// viewCtx is view with cooperative cancellation: the engine polls ctx
// every cancelPollInterval cancelled() calls. A context that can never be
// cancelled (Done() == nil, e.g. context.Background) disables polling
// entirely, so the non-cancellable path pays one nil check per candidate.
func (s *Stats) viewCtx(ctx context.Context) *engine {
	e := &engine{st: s}
	if ctx != nil && ctx.Done() != nil {
		e.ctx = ctx
		e.polls = cancelPollInterval
		// An already-cancelled context is observed before any work: short
		// searches would otherwise never accumulate enough cancelled()
		// calls to reach the first scheduled poll.
		e.err = ctx.Err()
	}
	return e
}

// cancelled reports whether the engine's context has been cancelled,
// polling it at bounded intervals. Once cancelled it stays cancelled; the
// observed error is kept in e.err. It never alters search results — a
// search that observes cancellation abandons work, it does not change what
// completed work computed.
func (e *engine) cancelled() bool {
	if e.ctx == nil {
		return false
	}
	if e.err != nil {
		return true
	}
	e.polls--
	if e.polls > 0 {
		return false
	}
	e.polls = cancelPollInterval
	if err := e.ctx.Err(); err != nil {
		e.err = err
		return true
	}
	return false
}

// cancelCause returns the cancellation error the engine observed during
// the search, or nil. A search that ran to completion without observing
// cancellation keeps its (complete, exact) result even if the context was
// cancelled concurrently — completing is always acceptable.
func (e *engine) cancelCause() error { return e.err }

func (e *engine) meanInvStd(start, length int) (mean, invStd float64) {
	return e.st.meanInvStd(start, length)
}

// kernelBlock is the early-abandon check stride of the blocked kernels
// past the first block: the monotone running sum of squares is compared
// against the cutoff once per kernelBlock elements instead of once per
// element. Within the first block the check stays per-element — the
// one-vs-many scans run with tight best-so-far cutoffs that abandon most
// calls within a few elements, where a block-granular check would pay for
// up to kernelBlock-1 elements the reference never touches.
const kernelBlock = 16

// distReference is the retained per-element kernel: normalization derived
// inline for both subsequences, the cutoff squared on every call, and the
// abandonment check after every element — exactly the shape the blocked
// and pinned kernels must reproduce bit for bit. It is the oracle of the
// equivalence property tests and FuzzDistKernel, and the searches run on
// it when Tuning.ReferenceKernel is set. It does not touch the call
// counter; the counting entry points do.
func (e *engine) distReference(p, q, length int, cutoff float64) float64 {
	mp, ip := e.st.meanInvStd(p, length)
	mq, iq := e.st.meanInvStd(q, length)
	limit := math.Inf(1)
	if !math.IsInf(cutoff, 1) {
		limit = cutoff * cutoff
	}
	var sum float64
	a := e.st.ts[p : p+length]
	b := e.st.ts[q : q+length]
	for i := 0; i < length; i++ {
		d := (a[i]-mp)*ip - (b[i]-mq)*iq
		sum += d * d
		if sum > limit {
			return math.Inf(1)
		}
	}
	return math.Sqrt(sum)
}

// dist computes the Euclidean distance between the z-normalized
// subsequences ts[p:p+length] and ts[q:q+length], abandoning early when
// the running distance exceeds cutoff (pass +Inf to disable). Every call
// increments the kernel counter regardless of abandonment — the Table 1
// accounting convention. An abandoned computation returns +Inf.
//
// The loop is blocked: the running sum of squares is monotone
// (non-decreasing — every added term is a square), so ANY schedule of
// prefix-vs-limit checks abandons exactly the calls the per-element
// reference abandons: a prefix exceeds the limit iff the total does. The
// schedule here is hybrid — per-element through the first block (tight
// cutoffs abandon there, and a coarser check would compute elements the
// reference never touches), then branch-free kernelBlock runs with one
// check per boundary, then the tail. The accumulator and its FP operation
// order are identical to distReference, so accepted results are
// bit-identical too. The cutoff is squared unconditionally — (+Inf)² is
// +Inf, so the disabled case needs no IsInf branch (and a negative or NaN
// cutoff squares to the same limit the reference derives).
//
//gvad:noalloc
func (e *engine) dist(p, q, length int, cutoff float64) float64 {
	e.calls++
	if e.refKernel {
		return e.distReference(p, q, length, cutoff)
	}
	mp, ip := e.st.meanInvStd(p, length)
	mq, iq := e.st.meanInvStd(q, length)
	limit := cutoff * cutoff
	var sum float64
	a := e.st.ts[p : p+length : p+length]
	b := e.st.ts[q : q+length : q+length]
	head := length
	if head > kernelBlock {
		head = kernelBlock
	}
	for i := 0; i < head; i++ {
		d := (a[i]-mp)*ip - (b[i]-mq)*iq
		sum += d * d
		if sum > limit {
			return math.Inf(1)
		}
	}
	i := head
	for ; i+kernelBlock <= length; i += kernelBlock {
		aa := a[i : i+kernelBlock : i+kernelBlock]
		bb := b[i : i+kernelBlock : i+kernelBlock]
		for j := 0; j < kernelBlock; j++ {
			d := (aa[j]-mp)*ip - (bb[j]-mq)*iq
			sum += d * d
		}
		if sum > limit {
			return math.Inf(1)
		}
	}
	for ; i < length; i++ {
		d := (a[i]-mp)*ip - (b[i]-mq)*iq
		sum += d * d
	}
	if sum > limit {
		return math.Inf(1)
	}
	return math.Sqrt(sum)
}

// pin fixes ts[start:start+length] as the query of the subsequent
// pinnedDist calls: its mean and inverse std are derived once and its
// z-normalized values written into the pooled scratch buffer, so each
// neighbor comparison loads precomputed query values instead of
// re-deriving them per call. (v-mp)*ip here is the same FP expression
// the reference kernel evaluates inline, so the precomputation is
// bit-invisible. One engine holds one pin at a time; re-pinning reuses
// the buffer.
//
// Only the first block is normalized eagerly. Early-abandoning scans may
// never look past it — RRA pins variable-length rule intervals whose
// scans are short, where an O(length) eager fill costs more than the
// whole scan — so the buffer is extended block-by-block from pinnedDist,
// reaching exactly as deep as the deepest neighbor comparison.
//
//gvad:noalloc
func (e *engine) pin(start, length int) {
	if e.scratch == nil {
		// Un-pooled fallback for engines used outside a search entry
		// point; searches attach a pooled Kernel before the first pin.
		e.scratch = new(workspace.Kernel)
	}
	buf := e.scratch.QNormScratch(length)
	mp, ip := e.st.meanInvStd(start, length)
	a := e.st.ts[start : start+length]
	head := length
	if head > kernelBlock {
		head = kernelBlock
	}
	for i := 0; i < head; i++ {
		buf[i] = (a[i] - mp) * ip
	}
	e.qnorm = buf
	e.qfill = head
	e.pinMean, e.pinInv = mp, ip
	e.pinStart = start
	if e.momLen != length || e.momStamp == nil {
		e.momMean, e.momInv, e.momStamp = e.scratch.MomentScratch(len(e.st.ts))
		e.momEpoch = e.scratch.Epoch
		e.momLen = length
	}
	// NaN sentinel: no real cutoff compares equal to it, so the first
	// pinnedDist after a pin always derives its squared limit fresh.
	e.pinCut = math.NaN()
	e.pinLimit = math.NaN()
}

// pinnedDist is dist with the query pinned by the last pin call: the
// query's normalization is loaded from the scratch buffer, only the
// neighbor's mean/invStd is derived, and the squared cutoff is memoized
// across calls (the one-vs-many loops change their cutoff only when the
// running nearest neighbor improves, so most calls reuse the square).
// Same blocked early-abandon loop, same counting convention, bit-identical
// results to dist and distReference.
//
//gvad:noalloc
func (e *engine) pinnedDist(q int, cutoff float64) float64 {
	length := len(e.qnorm)
	e.calls++
	if e.refKernel {
		return e.distReference(e.pinStart, q, length, cutoff)
	}
	if cutoff != e.pinCut {
		e.pinCut = cutoff
		e.pinLimit = cutoff * cutoff
	}
	limit := e.pinLimit
	var mq, iq float64
	if e.momStamp[q] == e.momEpoch {
		mq, iq = e.momMean[q], e.momInv[q]
	} else {
		// First touch of this neighbor at the pinned length: derive its
		// moments through the same expression every kernel uses (so the
		// stored values are bit-identical to an inline computation) and
		// stamp the entry valid for the current epoch.
		mq, iq = e.st.meanInvStd(q, length)
		e.momMean[q], e.momInv[q] = mq, iq
		e.momStamp[q] = e.momEpoch
	}
	qn := e.qnorm
	b := e.st.ts[q : q+length : q+length]
	var sum float64
	head := length
	if head > kernelBlock {
		head = kernelBlock
	}
	for i := 0; i < head; i++ {
		d := qn[i] - (b[i]-mq)*iq
		sum += d * d
		if sum > limit {
			return math.Inf(1)
		}
	}
	i := head
	for ; i+kernelBlock <= length; i += kernelBlock {
		if i+kernelBlock > e.qfill {
			e.extendQNorm(i + kernelBlock)
		}
		qq := qn[i : i+kernelBlock : i+kernelBlock]
		bb := b[i : i+kernelBlock : i+kernelBlock]
		for j := 0; j < kernelBlock; j++ {
			d := qq[j] - (bb[j]-mq)*iq
			sum += d * d
		}
		if sum > limit {
			return math.Inf(1)
		}
	}
	if i < length {
		if length > e.qfill {
			e.extendQNorm(length)
		}
		for ; i < length; i++ {
			d := qn[i] - (b[i]-mq)*iq
			sum += d * d
		}
	}
	if sum > limit {
		return math.Inf(1)
	}
	return math.Sqrt(sum)
}

// extendQNorm grows the pinned query's normalized prefix to at least n
// elements — the lazy half of pin, reached only when a scan outlives the
// prefix filled so far. Same expression, same bits.
//
//gvad:noalloc
func (e *engine) extendQNorm(n int) {
	mp, ip := e.pinMean, e.pinInv
	a := e.st.ts[e.pinStart : e.pinStart+len(e.qnorm)]
	buf := e.qnorm
	for i := e.qfill; i < n; i++ {
		buf[i] = (a[i] - mp) * ip
	}
	e.qfill = n
}

// Calls returns the number of distance-kernel invocations so far.
func (e *engine) Calls() int64 { return e.calls }

// Pruned returns the number of comparisons the MINDIST code pre-filter
// skipped before they reached the kernel.
func (e *engine) Pruned() int64 { return e.pruned }
