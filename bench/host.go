package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostHeader says on what machine and build a result was produced; every
// result carries one so two results are never compared blind.
type hostHeader struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"git_commit"`
}

func newHostHeader(seed uint64, workers int) hostHeader {
	return hostHeader{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Commit:     vcsRevision(),
	}
}

// benchWorkers is the engine/protocol worker count every workload passes
// explicitly: min(NumCPU, 4).
func benchWorkers() int { return min(runtime.NumCPU(), 4) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// vcsRevision reads the commit the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB reports VmHWM of this process in MB (0 when /proc is absent).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64) // "VmHWM:  123456 kB"
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets the kernel's high-water mark of this process's RSS
// (Linux: "5" to /proc/self/clear_refs), so that the next peakRSSMB reads
// the peak since now. It reports whether the reset worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuSeconds reports user+system CPU time consumed by this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const (
	calibSortKeys = 1 << 19 // keys sorted per worker
	calibGathers  = 1 << 22 // random gathers per worker
	calibTable    = 1 << 21 // words of the shared gather table (16 MB)
)

// calibrate runs the fixed kernel behind host.calib_ms once and reports its
// wall time in ms: every worker concurrently sorts 2¹⁹ keys and does 2²²
// random gathers from a shared 16 MB table. It touches no repo code, so its
// time says how fast the machine was at that moment and nothing about the
// system under test.
//
// The buffers (16 MB + 4 MB per worker) are mapped for the call and unmapped
// at its end, outside the Go heap. Held across passes they would sit in
// peak_rss_mb and make it depend on the worker count; taken from the heap
// they would be carved out of whatever spans the workload's garbage left,
// and the kernel's time would depend on the workload (measured: 70 ms in a
// fresh process, 88–95 ms inside dataplane-wide's).
func calibrate(workers int) float64 {
	words, release := mapWords(calibTable + workers*calibSortKeys)
	defer release()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range words { // xorshift64*: fixed stream, independent of -seed
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		words[i] = x * 0x2545f4914f6cdd1d
	}
	table := words[:calibTable]
	sums := make([]uint64, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := words[calibTable+w*calibSortKeys:][:calibSortKeys]
			slices.Sort(keys)
			idx, sum := uint32(keys[w]), uint64(0)
			for i := 0; i < calibGathers; i++ {
				sum += table[idx&(calibTable-1)]
				idx = idx*1664525 + 1013904223
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	d := time.Since(t0)
	runtime.KeepAlive(sums) // the gathers' results are used: the loop stays
	return ms(d)
}

// mapWords maps n fresh zeroed words of anonymous memory and returns them
// with the function that unmaps them; where mmap is refused it falls back
// to the Go heap.
func mapWords(n int) (words []uint64, release func()) {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, n), func() {}
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) } // unmapping our own mapping cannot fail
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
