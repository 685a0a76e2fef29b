//go:build !linux

package main

import (
	"syscall"
	"time"
)

// processCPU is unavailable off Linux; cpu_us_per_play reads 0 there.
func processCPU() time.Duration { return 0 }

func fsType(dir string) string { return "unknown" }

func childProcAttr() *syscall.SysProcAttr { return nil }
