package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the utime/stime fields in /proc/<pid>/stat.
// The kernel exports them in USER_HZ, which is 100 on every Linux ABI Go
// supports (it is the value sysconf(_SC_CLK_TCK) returns), whatever the
// kernel's internal HZ.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts the CPU time (utime+stime) from the contents of
// /proc/<pid>/stat. The second field is the executable name in
// parentheses and may itself contain spaces and parentheses, so the
// numbered fields are counted from the last ')' — the only robust split.
func parseProcStat(stat string) (cpu time.Duration, err error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procstat: no ')' in %q", stat)
	}
	// fields[0] is field 3 (state); utime is field 14, stime field 15.
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("procstat: only %d fields after the name", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procCPU reads the CPU time a process has consumed so far. pid 0 means
// this process.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseStatusMB extracts one of the kB-valued memory lines (VmRSS, the
// resident set; VmHWM, its high-water mark) from the contents of
// /proc/<pid>/status, in MB (10^6 bytes).
func parseStatusMB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procstat: unexpected %s line %q", key, line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: %s: %w", key, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("procstat: no %s line", key)
}

// procStatusMB reads one memory line of a process's status file.
func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseStatusMB(string(b), key)
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}
