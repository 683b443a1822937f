package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/onesided"
	"repro/popmatch"
)

// encodeBoth returns the text and binary encodings of ins.
func encodeBoth(t *testing.T, ins *onesided.Instance) (text, bin []byte) {
	t.Helper()
	var tb, bb bytes.Buffer
	if err := onesided.Write(&tb, ins); err != nil {
		t.Fatal(err)
	}
	if err := onesided.WriteBinary(&bb, ins); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), bb.Bytes()
}

// TestHTTPUploadContentNegotiation pins the upload endpoint's Content-Type
// contract: explicit text and binary types dispatch directly, generic types
// sniff by magic, unknown types are a 415 advertising the supported set,
// and malformed bodies of either format are a 400 — and the text/binary
// upload counters track which wire format registered each instance.
func TestHTTPUploadContentNegotiation(t *testing.T) {
	s, h := newHTTPServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	ins := onesided.RandomStrict(rng, 30, 20, 1, 5)
	text, bin := encodeBoth(t, ins)

	var textInfo instanceInfo
	if st := h.do("POST", "/v1/instances", "text/plain; charset=utf-8", text, &textInfo); st != http.StatusCreated {
		t.Fatalf("text upload status %d", st)
	}
	// Re-uploading the same content in binary must be idempotent: same id,
	// not created.
	var binInfo instanceInfo
	if st := h.do("POST", "/v1/instances", ContentTypeBinary, bin, &binInfo); st != http.StatusOK {
		t.Fatalf("binary re-upload status %d", st)
	}
	if binInfo.ID != textInfo.ID || binInfo.Created {
		t.Fatalf("binary re-upload minted a new identity: %+v vs %+v", binInfo, textInfo)
	}

	// Generic and absent Content-Types are sniffed by the magic.
	other := onesided.RandomTies(rng, 25, 15, 1, 4, 0.3)
	otherText, otherBin := encodeBoth(t, other)
	var sniffed instanceInfo
	if st := h.do("POST", "/v1/instances", "application/octet-stream", otherBin, &sniffed); st != http.StatusCreated {
		t.Fatalf("sniffed binary upload status %d", st)
	}
	var sniffedText instanceInfo
	if st := h.do("POST", "/v1/instances", "", otherText, &sniffedText); st != http.StatusOK {
		t.Fatalf("sniffed text upload status %d", st)
	}
	if sniffedText.ID != sniffed.ID {
		t.Fatalf("sniffed formats disagree on identity: %s vs %s", sniffedText.ID, sniffed.ID)
	}

	// Unknown Content-Type: 415, naming the supported types.
	var e415 errorResponse
	if st := h.do("POST", "/v1/instances", "application/json", text, &e415); st != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: status %d, want 415", st)
	}
	if !strings.Contains(e415.Error, ContentTypeBinary) || !strings.Contains(e415.Error, "text/plain") {
		t.Fatalf("415 body does not advertise supported types: %q", e415.Error)
	}

	// Malformed bodies of each flavor are a 400, not a panic or a 415.
	for name, c := range map[string]struct{ ct, body string }{
		"garbage_sniffed":   {"", "\x01\x02\x03 not an instance"},
		"garbage_text":      {"text/plain", "posts zero\n"},
		"text_as_binary":    {ContentTypeBinary, string(text)},
		"truncated_binary":  {"application/octet-stream", string(bin[:len(bin)-3])},
		"binary_as_text":    {"text/plain", string(bin)},
		"empty_sniffed":     {"", ""},
		"magic_only_binary": {ContentTypeBinary, onesided.BinaryMagic},
	} {
		if st := h.do("POST", "/v1/instances", c.ct, []byte(c.body), nil); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, st)
		}
	}

	stats := s.Stats()
	if stats["uploads_text"] != 2 || stats["uploads_binary"] != 2 {
		t.Fatalf("upload counters text=%d binary=%d, want 2/2", stats["uploads_text"], stats["uploads_binary"])
	}
	if stats["instances"] != 2 {
		t.Fatalf("registry holds %d instances, want 2", stats["instances"])
	}
}

// TestServerStoreRestart is the persistence round trip: uploads against a
// store-backed server land on disk as binary files, a fresh server opened
// on the same directory re-serves every instance (mmap'd, zero text
// parses — store_loaded is the whole registry and the upload counters stay
// zero), identities are stable across the restart, and eviction removes the
// persisted file so the instance stays gone.
func TestServerStoreRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	instances := []*onesided.Instance{
		onesided.RandomStrict(rng, 40, 30, 1, 6),
		onesided.RandomTies(rng, 30, 20, 1, 4, 0.4),
		onesided.RandomCapacitated(rng, 35, 12, 2, 4, 3),
	}

	s1, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(instances))
	for i, ins := range instances {
		snap, created, err := s1.Upload(ins)
		if err != nil || !created {
			t.Fatalf("upload %d: created=%v err=%v", i, created, err)
		}
		ids[i] = snap.ID
		if _, err := os.Stat(filepath.Join(dir, snap.ID+storeExt)); err != nil {
			t.Fatalf("upload %d not persisted: %v", i, err)
		}
	}
	// Duplicate upload: no second file write needed, still idempotent.
	if _, created, err := s1.Upload(instances[0].Clone()); err != nil || created {
		t.Fatalf("duplicate upload: created=%v err=%v", created, err)
	}
	out1, _, err := s1.Solve(t.Context(), ids[0], popmatch.ModeMaxCard)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Restart: everything is re-served from the store without re-parsing.
	s2, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stats := s2.Stats()
	if stats["store_loaded"] != int64(len(instances)) || stats["instances"] != int64(len(instances)) {
		t.Fatalf("restart loaded %d / holds %d, want %d", stats["store_loaded"], stats["instances"], len(instances))
	}
	if stats["uploads_text"] != 0 || stats["uploads_binary"] != 0 {
		t.Fatalf("restart counted uploads: %v", stats)
	}
	for i, id := range ids {
		snap, ok := s2.Instance(id)
		if !ok {
			t.Fatalf("instance %d (%s) did not survive the restart", i, id)
		}
		if snap.Ins.Fingerprint() != id {
			t.Fatalf("instance %d identity drifted across the restart", i)
		}
	}
	out2, _, err := s2.Solve(t.Context(), ids[0], popmatch.ModeMaxCard)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Size != out1.Size || out2.Exists != out1.Exists {
		t.Fatalf("solve diverged across restart: %+v vs %+v", out2, out1)
	}

	// Eviction unpersists: the file goes away now, the instance after the
	// next restart.
	if !s2.Evict(ids[1]) {
		t.Fatal("evict failed")
	}
	if _, err := os.Stat(filepath.Join(dir, ids[1]+storeExt)); !os.IsNotExist(err) {
		t.Fatalf("evicted instance still on disk: %v", err)
	}
	s2.Close()

	s3, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Stats()["instances"]; got != int64(len(instances)-1) {
		t.Fatalf("after evict+restart: %d instances, want %d", got, len(instances)-1)
	}
	if _, ok := s3.Instance(ids[1]); ok {
		t.Fatal("evicted instance resurrected by restart")
	}
}

// TestServerStoreRemovesOrphanedTempFiles is the regression test for crash
// leftovers: a temp file that a crash left between CreateTemp and Rename is
// deleted by Open, and the persisted instance beside it is still served.
func TestServerStoreRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := s1.Upload(strictInstance(t, 41, 50))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	orphan := filepath.Join(dir, ".tmp-orphan")
	if err := os.WriteFile(orphan, []byte("half an encoding"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Open: %v", err)
	}
	if out, _, err := s2.Solve(t.Context(), snap.ID, popmatch.ModePopular); err != nil || !out.Exists {
		t.Fatalf("persisted instance not served after Open: exists=%v err=%v", out != nil && out.Exists, err)
	}
}

// TestServerStoreRejectsCorruptFile pins the boot contract: a corrupt store
// file fails Open loudly instead of serving a half-decoded registry.
func TestServerStoreRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	snap, _, err := s.Upload(onesided.RandomStrict(rng, 20, 15, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snap.ID+storeExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x41
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{StoreDir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt store file")
	}
}

// TestHTTPStoreBackedUpload exercises the store through the HTTP surface: a
// handler over a store-backed server persists uploads and the stats
// endpoint exposes the store counters.
func TestHTTPStoreBackedUpload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	h := &httpClient{t: t, base: ts.URL, c: ts.Client()}

	rng := rand.New(rand.NewSource(5))
	_, bin := encodeBoth(t, onesided.RandomStrict(rng, 25, 18, 1, 5))
	var info instanceInfo
	if st := h.do("POST", "/v1/instances", ContentTypeBinary, bin, &info); st != http.StatusCreated {
		t.Fatalf("upload status %d", st)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID+storeExt)); err != nil {
		t.Fatalf("HTTP upload not persisted: %v", err)
	}
	var stats map[string]int64
	if st := h.do("GET", "/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats status %d", st)
	}
	if stats["uploads_binary"] != 1 || stats["store_loaded"] != 0 {
		t.Fatalf("unexpected counters: %v", stats)
	}
}
