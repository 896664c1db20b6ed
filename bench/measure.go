package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// stat summarises the samples of one metric. The benchmark reports the
// median; the quartiles are what -compare uses to decide whether two
// medians can be told apart at all.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between order statistics of a sorted
// slice (the "inclusive" method), so one sample is its own quartiles.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func summarize(unit string, samples []float64) stat {
	if len(samples) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{
		Unit:   unit,
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

func single(unit string, v float64) stat { return summarize(unit, []float64{v}) }

// times returns s with every figure multiplied by k.
func (s stat) times(k float64) stat {
	s.Median, s.Q1, s.Q3, s.Min, s.Max = s.Median*k, s.Q1*k, s.Q3*k, s.Min*k, s.Max*k
	return s
}

// counters is one reading of the process-wide counters a timed region
// is bracketed with.
type counters struct {
	wall       time.Time
	cpu        time.Duration // user+sys of the whole process
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters() counters {
	// Not safe for concurrent use; the benchmark reads counters from its
	// main goroutine only.
	metrics.Read(counterSamples)
	c := counters{
		allocs:     counterSamples[0].Value.Uint64(),
		allocBytes: counterSamples[1].Value.Uint64(),
		gcCycles:   counterSamples[2].Value.Uint64(),
		gcCPU:      counterSamples[3].Value.Float64(),
		totalCPU:   counterSamples[4].Value.Float64(),
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.wall = time.Now()
	return c
}

// delta is the cost of the region between two counter readings.
type delta struct {
	wallNS, cpuNS      float64
	allocs, allocBytes float64
	gcCycles           float64
	gcCPUFrac          float64
}

func (a counters) until(b counters) delta {
	d := delta{
		wallNS:     float64(b.wall.Sub(a.wall).Nanoseconds()),
		cpuNS:      float64((b.cpu - a.cpu).Nanoseconds()),
		allocs:     float64(b.allocs - a.allocs),
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
	}
	if t := b.totalCPU - a.totalCPU; t > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / t
	}
	return d
}

// timed runs fn between two counter readings. A collection runs first so
// every region starts from the same heap state and the previous region's
// garbage is not billed to this one.
func timed(fn func()) delta {
	runtime.GC()
	before := readCounters()
	fn()
	return before.until(readCounters())
}

// peakRSSMB is the process's resident-set high-water mark, less the
// benchmark's own calibration array (every page of it is resident from
// the first reading on). Off Linux, where /proc is missing, it falls back
// to the runtime's view of the memory it has mapped, which is a current
// figure, not a peak.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					if calibCycle != nil {
						kb -= calibArrayBytes / 1024
					}
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// The calibration unit is a fixed piece of work that touches nothing of
// the program under test: calibDraws draws of a splitmix64 generator the
// benchmark owns (arithmetic only), then calibHops dependent loads around
// a random cycle through an array of calibArrayBytes (cache and memory
// latency). calibRefNS is what one unit takes on the quiet 2-CPU host the
// benchmark was sized on. calibScale shortens the unit for the smoke
// test; readings are scaled back to the full unit.
const (
	calibDraws      = 40_000_000
	calibHops       = 400_000
	calibArrayBytes = 16 << 20
	calibRefNS      = 85e6
)

var (
	calibScale = 1.0
	calibSink  uint64
	calibCycle []uint32
)

// cycle returns the array the calibration unit walks, made on first use:
// one cycle through all its entries in a fixed pseudo-random order
// (Sattolo's shuffle), so every load depends on the one before and none
// can be prefetched. The array is mapped outside the Go heap: inside it,
// its 16 MB of live data would move the collector's pacing, and with it
// every number of the program under test.
func cycle() []uint32 {
	if calibCycle != nil {
		return calibCycle
	}
	const n = calibArrayBytes / 4
	if b, err := syscall.Mmap(-1, 0, calibArrayBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		calibCycle = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	} else {
		calibCycle = make([]uint32, n)
	}
	c := calibCycle
	for i := range c {
		c[i] = uint32(i)
	}
	var s uint64 = 1
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int((s >> 33) % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}

// host collects the calibration readings of one measurement. This shared
// host's speed moves by tens of percent between one process and the next
// and within one, wall and CPU time together; the calibration unit moves
// with it, so times scaled by the unit's mean reading agree between runs
// of the same code where raw ones do not. Arithmetic or memory alone do
// not track it: the two halves of the unit are disturbed separately.
type host struct {
	sum       float64 // of all readings
	n         int
	min       float64 // fastest reading
	discarded int
}

// calibrate times one calibration unit and returns the reading. A
// collection runs first: the runtime's own background work would share
// the core with the unit. A nil host takes no readings.
func (h *host) calibrate() float64 {
	if h == nil {
		return 0
	}
	c := cycle()
	runtime.GC()
	draws, hops := int(calibDraws*calibScale), int(calibHops*calibScale)
	start := time.Now()
	var s, x uint64
	for i := 0; i < draws; i++ {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x ^= z ^ (z >> 31)
	}
	var p uint32
	for i := 0; i < hops; i++ {
		p = c[p]
	}
	calibSink = x + uint64(p)
	r := float64(time.Since(start).Nanoseconds()) / calibScale
	h.sum += r
	h.n++
	if h.min == 0 || r < h.min {
		h.min = r
	}
	return r
}

// mean is the mean calibration reading: the host's speed over the whole
// measurement, slow moments included.
func (h *host) mean() float64 { return h.sum / float64(h.n) }

// scale converts a time measured in this process to the time the same
// work takes on the reference host.
func (h *host) scale() float64 { return calibRefNS / h.mean() }

const calibSlack = 1.08

// quiet is the host-noise guard: it reports whether reading c is within
// calibSlack of the fastest the process has seen, and counts the slots
// that were not. A repetition is measured only right after a quiet
// reading.
func (h *host) quiet(c float64) bool {
	if c > h.min*calibSlack {
		h.discarded++
		return false
	}
	return true
}

// hostInfo is recorded with every result so numbers from different
// hosts are never compared by accident.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	HostCPUs   int    `json:"host_cpus"`
	// CalibNS is the mean calibration reading, the one times are
	// scaled by; CalibMinNS the fastest, the guard's reference.
	CalibNS       float64 `json:"host.calib_ns"`
	CalibMinNS    float64 `json:"host.calib_min_ns"`
	DiscardedReps int     `json:"host.discarded_reps"`
}

// pinProcs sets GOMAXPROCS to min(NumCPU, 4). The default is not
// trusted: before Go 1.25 it ignores a container's CPU quota, and the
// sharded workload's meaning depends on how many cores really run.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}
