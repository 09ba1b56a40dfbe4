package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// noiseRecord brackets a run: the steal share of the machine's CPU time
// from /proc/stat and a fixed calibration loop timed before and after, so
// a run taken in a noisy period can be told from a regression.
type noiseRecord struct {
	stat0  []uint64
	calib0 []float64
}

func startNoise() *noiseRecord {
	n := &noiseRecord{calib0: calibrate()}
	n.stat0 = procStatCPU()
	return n
}

// finish returns the steal percentage over the run and the median
// calibration time in ms over both brackets.
func (n *noiseRecord) finish() (stealPct, calibMS float64) {
	stat1 := procStatCPU()
	if len(n.stat0) >= 8 && len(stat1) >= 8 {
		var total uint64
		for i := 0; i < 8; i++ { // user nice system idle iowait irq softirq steal
			total += stat1[i] - n.stat0[i]
		}
		if total > 0 {
			stealPct = 100 * float64(stat1[7]-n.stat0[7]) / float64(total)
		}
	}
	return stealPct, median(append(n.calib0, calibrate()...))
}

// calibrate times a fixed SHA-256 loop several times, in ms.
func calibrate() []float64 {
	buf := make([]byte, 1<<18)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	out := make([]float64, 7)
	for r := range out {
		t0 := time.Now()
		for i := 0; i < 8; i++ {
			sum := sha256.Sum256(buf)
			buf[i] = sum[0]
		}
		out[r] = ms(time.Since(t0))
	}
	return out
}

// procStatCPU reads the aggregate "cpu" line of /proc/stat.
func procStatCPU() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		out = append(out, v)
	}
	return out
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux platform Go supports.
const clockTicks = 100

// procCPUSeconds returns a process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, os.ErrInvalid
	}
	utime, _ := strconv.ParseUint(fields[11], 10, 64)
	stime, _ := strconv.ParseUint(fields[12], 10, 64)
	return float64(utime+stime) / clockTicks, nil
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns VmHWM of a process ("self" for this one) in MB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test without git (the checkout
// the benchmark runs in need not be a repository): a SHA-256 over the
// paths and contents of the module's Go sources, go.mod included,
// excluding the benchmark's own directory and build outputs.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
