//go:build unix

package onesided

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// MappedInstance is a binary-format instance backed by a read-only memory
// mapping of its file: the CSR arrays alias the mapped pages directly, so
// opening an instance costs one validation pass and no copies, and unused
// pages stay on disk until the kernel faults them in. The mapping is
// read-only at the page-table level — an accidental in-place mutation of the
// instance faults instead of corrupting the store — so mutation requires
// Instance.Clone.
//
// Close unmaps the pages; the instance (and every CSR view into it) must not
// be used afterwards. Holders that hand the instance to concurrent solvers
// keep the mapping open for the instance's whole lifetime (see the serve
// store, which unmaps only at server close, after the solver pool drains).
type MappedInstance struct {
	Ins  *Instance
	data []byte
}

// MapBinaryFile memory-maps path and decodes it as a binary instance,
// streaming the content fingerprint during the validation pass. The fallback
// for platforms without mmap reads the file instead (same API, one copy).
func MapBinaryFile(path string) (*MappedInstance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < binaryHeaderSize {
		return nil, fmt.Errorf("%s: binary instance truncated: %d bytes, want at least the %d-byte header",
			path, size, binaryHeaderSize)
	}
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("%s: %d bytes exceeds the binary format's size budget", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	ins, err := DecodeBinaryWithFingerprint(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &MappedInstance{Ins: ins, data: data}, nil
}

// Close releases the mapping. The instance must no longer be referenced.
func (m *MappedInstance) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data, m.Ins = nil, nil
	return syscall.Munmap(data)
}
