package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint every record carries: two results are
// comparable only when these agree.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	// Link says what the wire workload's packets crossed. It is always
	// the host's loopback interface: no number here is a link rate.
	Link string `json:"link"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Link:       "loopback",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d: VmHWM %q: %w", pid, f[0], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports; sysconf is not reachable
// without cgo.
const clockTick = 100

// procCPU is a process's accumulated CPU time, in seconds.
type procCPU struct{ user, sys float64 }

func (c procCPU) total() float64 { return c.user + c.sys }

func (c procCPU) sub(o procCPU) procCPU { return procCPU{c.user - o.user, c.sys - o.sys} }

// procStat returns a process's parent pid and CPU times from
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func procStat(pid int) (ppid int, cpu procCPU, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, procCPU{}, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, procCPU{}, fmt.Errorf("pid %d: malformed stat", pid)
	}
	f := strings.Fields(string(b[i+1:])) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, procCPU{}, fmt.Errorf("pid %d: short stat", pid)
	}
	ppid, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, procCPU{}, fmt.Errorf("pid %d: ppid: %w", pid, err)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, procCPU{}, fmt.Errorf("pid %d: malformed CPU times", pid)
	}
	return ppid, procCPU{ut / clockTick, st / clockTick}, nil
}

// childNodes finds this process's clued children and maps each node
// name (the value after -node on its command line) to its pid. The
// launcher in internal/cluster does not expose pids, so they are read
// from /proc, from outside.
func childNodes() (map[string]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	out := map[string]int{}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		ppid, _, err := procStat(pid)
		if err != nil || ppid != self {
			continue // raced with an exit, or not ours
		}
		cmd, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err != nil {
			continue
		}
		args := strings.Split(string(cmd), "\x00")
		for i := 0; i+1 < len(args); i++ {
			if args[i] == "-node" {
				out[args[i+1]] = pid
			}
		}
	}
	return out, nil
}

// selfCPU is this process's accumulated CPU time (zero when /proc is
// unreadable: the share metrics built on it then read 0).
func selfCPU() procCPU {
	_, cpu, _ := procStat(os.Getpid())
	return cpu
}
