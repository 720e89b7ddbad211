//go:build !linux

package main

// filesystem is only detected on Linux.
func filesystem(string) string { return "unknown" }
