package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// header describes the machine, build and settings a result was measured
// with; it is printed before every result.
type header struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	GoVersion    string  `json:"go_version"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	FlushPolicy  string  `json:"flush_policy"`
	Workers      int     `json:"engine_workers"`
	Clients      int     `json:"clients"`
}

func newHeader(cfg config) header {
	return header{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		GoVersion:    runtime.Version(),
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		SourceDigest: os.Getenv("PERFBENCH_SOURCE_DIGEST"),
		FlushPolicy:  fmt.Sprintf("fsync every %d steps, checkpoint every %d steps", syncEvery, checkpointEvery),
		Workers:      1,
		Clients:      1,
	}
}

// commit returns the VCS revision stamped into the binary, when it was built
// inside a git checkout; the source digest identifies the tree otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
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
