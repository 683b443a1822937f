package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/onesided"
)

// storeExt is the filename extension of persisted instances: one binary
// encoding per file, named by the instance's content fingerprint.
const storeExt = ".pmb"

// diskStore is the registry's persistence layer: every created snapshot is
// written to <dir>/<fingerprint>.pmb in the binary format, and on boot the
// directory is mmap'd back — each file's CSR arrays alias the read-only
// pages directly, so a restart re-serves every instance without a single
// text parse or array copy (the kernel pages data in on first solve).
//
// Lifetime: mappings stay live until Close, even for instances evicted in
// the meantime — an in-flight solve admitted before the evict may still be
// indexing the mapped arrays, and unmapping under it would fault. Eviction
// therefore removes the file (the instance does not survive a restart) but
// leaves the pages mapped until shutdown.
type diskStore struct {
	dir string

	mu   sync.Mutex
	maps []*onesided.MappedInstance
}

// tmpPrefix names persist's temp files. One that outlived its rename was
// orphaned by a crash; openDiskStore deletes it.
const tmpPrefix = ".tmp-"

// openDiskStore opens (creating if needed) the store directory and deletes
// the temp files of persists a crash interrupted.
func openDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("opening instance store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading instance store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("removing orphaned store file: %w", err)
			}
		}
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) path(id string) string {
	return filepath.Join(d.dir, id+storeExt)
}

// loadAll maps every persisted instance. Files are visited in name order
// (fingerprints, so the order is stable across restarts); a file that fails
// to map or decode aborts the load — a corrupt store is a deployment
// problem to surface at boot, not to paper over.
func (d *diskStore) loadAll() ([]*onesided.MappedInstance, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("reading instance store: %w", err)
	}
	var out []*onesided.MappedInstance
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), storeExt) {
			continue
		}
		m, err := onesided.MapBinaryFile(filepath.Join(d.dir, e.Name()))
		if err != nil {
			for _, prev := range out {
				prev.Close()
			}
			return nil, fmt.Errorf("instance store file %s: %w", e.Name(), err)
		}
		out = append(out, m)
	}
	d.mu.Lock()
	d.maps = append(d.maps, out...)
	d.mu.Unlock()
	return out, nil
}

// persist writes ins under id (its fingerprint) via a temp file and rename,
// so readers — including a concurrently booting second process — never see
// a partial encoding, then fsyncs the directory so the rename survives a
// crash.
func (d *diskStore) persist(ins *onesided.Instance, id string) error {
	f, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := onesided.WriteBinary(f, ins); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(id)); err != nil {
		os.Remove(tmp)
		return err
	}
	return d.syncDir()
}

// remove deletes id's file and fsyncs the directory, so the deletion
// survives a crash; the mapping (if any) stays live until Close. A missing
// file is not an error: instances uploaded before the store was
// configured, or already removed, have nothing on disk.
func (d *diskStore) remove(id string) error {
	err := os.Remove(d.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return d.syncDir()
}

// syncDir flushes the directory entry changes of a rename or remove.
func (d *diskStore) syncDir() error {
	dir, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close unmaps every mapping. Callers must ensure no solve can still touch
// the mapped arrays (Server.Close runs this after the solver pool drains).
func (d *diskStore) Close() error {
	d.mu.Lock()
	maps := d.maps
	d.maps = nil
	d.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
