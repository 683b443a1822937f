//go:build !debug

package onesided

// Release builds skip the immutability fingerprints of the `debug` tag; the
// hooks compile to nothing. See check_debug.go.

func (ins *Instance) recordFingerprint() {}

func (ins *Instance) checkFingerprint() {}

func (ins *Instance) clearFingerprint() {}
