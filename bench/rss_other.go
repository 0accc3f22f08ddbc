//go:build !linux

package main

func peakRSSMB() float64 { return heapSysMB() }
