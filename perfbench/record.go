package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// record is the run record stored with every result.
type record struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	CPU        string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"` // per process, the generator included
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Points     int            `json:"points"`
	Dim        int            `json:"dim"`
	Fresh      int            `json:"insert_pool,omitempty"`
	Shards     int            `json:"shards,omitempty"`
	Nominal    float64        `json:"nominal_ops_per_s"`
	Ladder     []float64      `json:"ladder_ops_per_s"`
	LimitMS    float64        `json:"rknn_p95_limit_ms"`
	Conns      int            `json:"connections"`
}

func (r *run) record() record {
	gmp := map[string]int{"perfbench": runtime.GOMAXPROCS(0)}
	for k, v := range r.gmp {
		gmp[k] = v
	}
	rec := record{
		Workload: r.w.name, Why: r.w.why, Seed: r.seed, Seconds: r.seconds,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: gmp,
		GoVersion: runtime.Version(), Commit: commit(),
		Points: len(r.data), Dim: len(r.data[0]), Shards: r.w.shards,
		Nominal: r.w.nominal, Ladder: r.w.ladder, LimitMS: durMS(r.w.limit), Conns: r.conns,
	}
	if r.tr.fresh != nil {
		rec.Fresh = len(r.tr.fresh)
	}
	return rec
}

// stealMeter measures the share of CPU time the hypervisor gave to other
// guests, from /proc/stat, since it was made. It explains noisy runs on
// shared hosts.
type stealMeter struct{ steal, total float64 }

func newStealMeter() stealMeter {
	s, t := cpuTimes()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTimes()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// cpuTimes reads the steal and total jiffies of the aggregate cpu line;
// both are 0 where /proc/stat is missing.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // guest time is already inside user and nice
		x, _ := strconv.ParseFloat(v, 64) // a malformed field counts as 0
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: the git commit when the checkout is a
// repository, else a digest of the Go sources and module files.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
