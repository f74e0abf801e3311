package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// provenance describes the host and the run, printed before the result.
func provenance(o options, dir string) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"kernel":        kernelRelease(),
		"data_dir_fs":   fsType(dir),
		"setup_repeats": setupRuns,
	}
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsMagic names the filesystems a data directory is likely to sit on
// (statfs f_type values from linux/magic.h).
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMiB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runChild runs one workload in a child process of this binary and
// returns its standard output and exit code; its standard error passes
// through.
func runChild(self, name string, o options) (string, int) {
	args := []string{
		"--workload", name,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace),
		"--data-dir", o.dataDir,
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		}
		return string(out), 1
	}
	return string(out), 0
}

// hostTicks are the machine-wide CPU tick counters of /proc/stat.
type hostTicks struct{ busy, iowait, steal, total float64 }

// hostShares are the percentages of machine CPU time over an interval
// that was busy (user, system, interrupts), waiting on I/O, or stolen by
// the hypervisor for other guests.
type hostShares struct{ busy, iowait, steal float64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	t := hostTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], iowait: v[4], steal: v[7]}
	t.total = t.busy + v[3] + t.iowait + t.steal
	return t
}

func (t hostTicks) since(t0 hostTicks) hostShares {
	total := t.total - t0.total
	return hostShares{
		busy:   100 * div(t.busy-t0.busy, total),
		iowait: 100 * div(t.iowait-t0.iowait, total),
		steal:  100 * div(t.steal-t0.steal, total),
	}
}
