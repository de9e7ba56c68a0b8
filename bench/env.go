package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// envStamp records where a result was measured.
type envStamp struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the repetition processes
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Revision   string `json:"revision,omitempty"`
	Modified   bool   `json:"modified,omitempty"`
}

func stamp(seed int64, seconds int) envStamp {
	e := envStamp{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: width(), Seed: seed, Seconds: seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// width is the parallelism of a repetition: its GOMAXPROCS, the city's
// shard count and the campaign's worker count.
func width() int { return min(2, runtime.NumCPU()) }

// procField returns the integer after "key:" in a /proc/self file, or 0
// when the file or the key is missing.
func procField(file, key string) int64 {
	f, err := os.Open(file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				return 0
			}
			n, _ := strconv.ParseInt(fields[0], 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 { return float64(procField("/proc/self/status", "VmHWM")) / 1024 }

// procWritten is the number of bytes the process has passed to write
// calls so far (wchar).
func procWritten() int64 { return procField("/proc/self/io", "wchar") }
