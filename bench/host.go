package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo describes where and on what commit a run was made. Numbers
// from two hosts, or two commits, are only comparable with this next
// to them.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

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

// gitCommit is the commit the binary was built from: the build's VCS
// stamp when there is one, else what git says about the working
// directory, else "unknown" (a checkout that is not a repository).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func describeHost() hostInfo {
	return hostInfo{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: gitCommit(),
	}
}

// parallel reports whether the host can run the engine's workers at
// once. When it cannot, the run still measures, but every printout and
// the JSON say that its Workers=2 numbers are not parallel results.
func (h hostInfo) parallel() bool {
	return h.NumCPU >= engineWorkers && h.GOMAXPROCS >= engineWorkers
}

func (h hostInfo) String() string {
	s := fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s %s/%s, commit %s",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
	if !h.parallel() {
		s += fmt.Sprintf("\nWARNING: fewer than %d CPUs: the Workers=%d numbers below are NOT parallel results", engineWorkers, engineWorkers)
	}
	return s
}
