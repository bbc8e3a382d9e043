package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick rate for /proc/stat (USER_HZ, 100
// on every mainstream Linux architecture).
const userHZ = 100

// hostTicks is one reading of the aggregate cpu line of /proc/stat,
// in seconds summed over every vCPU: busy is time the guest ran
// something (user, nice, system, irq, softirq; guest time is inside
// user), steal is time the hypervisor ran something else while a vCPU
// wanted to run.
type hostTicks struct{ busy, steal float64 }

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("perfbench: unexpected /proc/stat line %q", line)
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return hostTicks{}, fmt.Errorf("perfbench: /proc/stat: %w", err)
		}
	}
	return hostTicks{busy: (v[1] + v[2] + v[3] + v[6] + v[7]) / userHZ, steal: v[8] / userHZ}, nil
}

// stamp is a point in time with the host's CPU accounting.
type stamp struct {
	t     time.Time
	ticks hostTicks
}

// now reads the clock and /proc/stat (run checks once, up front, that
// /proc/stat is readable; a failed reading here only disables the
// steal correction of one interval).
func now() stamp {
	ticks, _ := readHostTicks()
	return stamp{t: time.Now(), ticks: ticks}
}

// netOfSteal returns the wall seconds from a to b less the host's
// steal in between. The vCPUs wanted busy+steal seconds and ran busy
// of them, so the interval would have taken wall×busy/(busy+steal)
// without the steal: wall−steal/nproc when every vCPU is busy, and
// wall−steal when one is. /proc/stat counts in 10 ms ticks, so a
// short interval usually sees no steal and keeps its wall time.
func netOfSteal(a, b stamp) float64 {
	wall := b.t.Sub(a.t).Seconds()
	busy, steal := b.ticks.busy-a.ticks.busy, b.ticks.steal-a.ticks.steal
	if busy <= 0 || steal <= 0 {
		return wall
	}
	return wall * busy / (busy + steal)
}

// vmHWMKiB reads the process's high-water RSS (VmHWM) in KiB.
func vmHWMKiB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}

// resetPeakRSS collects the heap, returns freed pages to the OS and
// resets the kernel's VmHWM to the current RSS (writing 5 to
// /proc/self/clear_refs), so the next vmHWMKiB reading is the peak of
// the work done in between and not of whatever ran before.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSelf returns the process's user+system CPU time from the kernel.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the per-layer metrics use.
type runtimeSample struct {
	GCCPUSeconds float64 `json:"gc_cpu_s"`
	HeapLive     uint64  `json:"heap_live_bytes"`
	Allocs       uint64  `json:"allocs"`
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.GCCPUSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.HeapLive = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.Allocs = s[2].Value.Uint64()
	}
	return out
}

// liveHeapMiB collects the heap and returns the bytes it marked live.
func liveHeapMiB() float64 {
	runtime.GC()
	return float64(readRuntime().HeapLive) / (1 << 20)
}

// envHeader describes the machine and build a result was measured on.
type envHeader struct {
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
	StealS     float64 `json:"steal_s"`
}

func newEnvHeader(workload string, seed uint64, seconds int, traced bool) envHeader {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envHeader{
		Commit:     gitCommit("."),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     strings.TrimSpace(string(kernel)),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// gitCommit resolves HEAD from root/.git without running git; a
// checkout without git metadata reports "unknown" (the source hash
// then identifies the tree).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash digests the module's Go sources (go.mod plus every .go
// file under cmd/ and internal/), so two results can be matched to
// the same program even where no git metadata exists.
func sourceHash(root string) string {
	h := sha256.New()
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			return
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
