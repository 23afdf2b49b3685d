package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a slice (copied, not reordered); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile of an already sorted slice, nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailOf returns the highest percentile, capped at p99, that still has
// at least ten samples beyond it, with the percentile used and the
// number of samples beyond it. Below eleven samples it is the maximum.
func tailOf(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if i > n-11 {
		i = n - 11
	}
	if i < 0 {
		i = n - 1
	}
	return sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// spread is the interquartile range as a share of the median: the
// within-run spread the stamp records for each metric taken over
// windows, set-ups or matrices.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

// opRec is one completed operation of a timed phase.
type opRec struct {
	end     time.Duration // completion, relative to the phase start
	latency time.Duration
	bytes   int64         // input IR bytes the operation translated
	gap     time.Duration // closed loops: since the client's previous operation ended
}

// opLog records a client's operations in anonymous memory mapped
// outside the Go heap, in chunks allocated as it grows, so the
// benchmark's own bookkeeping neither counts towards peak_heap_mb nor
// grows it with the number of operations a faster program completes.
type opLog struct {
	chunks [][]byte
	n      int
}

const opLogChunk = 1 << 15 // records per chunk

func (l *opLog) add(o opRec) error {
	if l.n%opLogChunk == 0 {
		b, err := syscall.Mmap(-1, 0, opLogChunk*int(unsafe.Sizeof(opRec{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("mapping the operation log: %w", err)
		}
		l.chunks = append(l.chunks, b)
	}
	chunk := unsafe.Slice((*opRec)(unsafe.Pointer(&l.chunks[l.n/opLogChunk][0])), opLogChunk)
	chunk[l.n%opLogChunk] = o
	l.n++
	return nil
}

// drain copies the records onto the heap and unmaps the log. Call it
// after the timed phase.
func (l *opLog) drain() []opRec {
	out := make([]opRec, 0, l.n)
	for i, b := range l.chunks {
		chunk := unsafe.Slice((*opRec)(unsafe.Pointer(&b[0])), opLogChunk)
		out = append(out, chunk[:min(opLogChunk, l.n-i*opLogChunk)]...)
		_ = syscall.Munmap(b) // the mapping is private and about to be forgotten
	}
	l.chunks, l.n = nil, 0
	return out
}

// sampler watches a timed phase: it reads the process CPU time at every
// window boundary and the live Go heap every few milliseconds.
type sampler struct {
	start  time.Time
	window time.Duration

	mu       sync.Mutex
	marks    []mark // one per window boundary, the first at the start
	winPeak  uint64 // peak live heap of the open window
	spanPeak uint64 // peak live heap since the last takePeak
	stop     chan struct{}
	done     chan struct{}
}

// mark closes a window: the process CPU time at its end and the peak
// live heap inside it.
type mark struct {
	at   time.Duration // since the phase start
	cpu  time.Duration
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startSampler(window time.Duration) *sampler {
	s := &sampler{start: time.Now(), window: window, stop: make(chan struct{}), done: make(chan struct{})}
	s.marks = append(s.marks, mark{cpu: cpuTime()})
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	next := s.start.Add(s.window)
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			metrics.Read(sample)
			s.mu.Lock()
			if sample[0].Value.Kind() == metrics.KindUint64 {
				v := sample[0].Value.Uint64()
				s.winPeak, s.spanPeak = max(s.winPeak, v), max(s.spanPeak, v)
			}
			if !now.Before(next) {
				s.marks = append(s.marks, mark{at: now.Sub(s.start), cpu: cpuTime(), peak: s.winPeak})
				s.winPeak = 0
				next = next.Add(s.window)
			}
			s.mu.Unlock()
		}
	}
}

// finish stops the sampler and returns the phase's wall time and CPU.
func (s *sampler) finish() (wall, cpu time.Duration) {
	wall = time.Since(s.start)
	close(s.stop)
	<-s.done
	return wall, cpuTime() - s.marks[0].cpu
}

// phaseMetrics reduces a closed-loop phase to the end-to-end metrics:
// ops_per_s, cpu_ms_per_op and mb_per_s are medians over the sampler's
// full windows (about one second each), p50_ms and tail_ms are taken over every operation, and
// peak_heap_mb is the phase maximum.
func (s *sampler) phaseMetrics(ops []opRec, wall, cpu time.Duration, r *result) {
	latencyMetrics(ops, r)
	s.mu.Lock()
	marks := append([]mark(nil), s.marks...)
	s.mu.Unlock()
	s.heapMetric(r)

	full := len(marks) - 1 // windows closed by a CPU sample
	var opsW, cpuW, mbW []float64
	if full >= 2 {
		counts := make([]float64, full)
		byts := make([]float64, full)
		// An operation counts towards each window in proportion to
		// the part of its interval inside it, so window rates are not
		// quantized to whole operations.
		for _, o := range ops {
			start := o.end - o.latency
			first := sort.Search(len(marks), func(i int) bool { return marks[i].at > start }) - 1
			for w := max(first, 0); w < full && marks[w].at < o.end; w++ {
				lo, hi := max(start, marks[w].at), min(o.end, marks[w+1].at)
				if hi <= lo {
					continue
				}
				share := 1.0
				if o.latency > 0 {
					share = float64(hi-lo) / float64(o.latency)
				}
				counts[w] += share
				byts[w] += share * float64(o.bytes)
			}
		}
		for w := 0; w < full; w++ {
			if counts[w] == 0 {
				continue
			}
			secs := (marks[w+1].at - marks[w].at).Seconds()
			opsW = append(opsW, counts[w]/secs)
			cpuW = append(cpuW, float64(marks[w+1].cpu-marks[w].cpu)/1e6/counts[w])
			mbW = append(mbW, byts[w]/1e6/secs)
		}
	}
	if len(opsW) < 2 {
		// Too short for windows: whole-phase rates.
		var byts float64
		for _, o := range ops {
			byts += float64(o.bytes)
		}
		opsW = []float64{float64(len(ops)) / wall.Seconds()}
		cpuW = []float64{float64(cpu) / 1e6 / math.Max(1, float64(len(ops)))}
		mbW = []float64{byts / 1e6 / wall.Seconds()}
	}
	r.setWindows("ops_per_s", opsW)
	r.setWindows("cpu_ms_per_op", cpuW)
	r.setWindows("mb_per_s", mbW)
}

// latencyMetrics sets p50_ms and tail_ms over every operation, noting
// the tail percentile used and the samples beyond it.
func latencyMetrics(ops []opRec, r *result) {
	p50, tail, pct, beyond := latencies(ops)
	r.set("p50_ms", p50)
	r.set("tail_ms", tail)
	r.note("tail_percentile", pct)
	r.note("tail_samples_beyond", beyond)
	r.note("latency_samples", len(ops))
}

// latencies is the median and tail latency in ms of ops, with the tail
// percentile and the number of samples beyond it.
func latencies(ops []opRec) (p50, tail, pct float64, beyond int) {
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = float64(o.latency) / 1e6
	}
	sort.Float64s(lat)
	tail, pct, beyond = tailOf(lat)
	return quantile(lat, 0.5), tail, pct, beyond
}

// takePeak returns the peak live heap in MB since the last call (or the
// start) and starts a new peak.
func (s *sampler) takePeak() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.spanPeak
	s.spanPeak = 0
	return float64(p) / 1e6
}

// heapMetric sets peak_heap_mb: the median over the phase's windows of
// each window's peak live heap, or the phase's peak when it is shorter
// than two windows.
func (s *sampler) heapMetric(r *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var peaks []float64
	for _, m := range s.marks[1:] {
		peaks = append(peaks, float64(m.peak)/1e6)
	}
	if len(peaks) < 2 {
		peaks = []float64{float64(s.spanPeak) / 1e6}
	}
	r.setWindows("peak_heap_mb", peaks)
}
