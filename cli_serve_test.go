package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end test of the popserved daemon binary: build it, start it on a
// kernel-chosen port, drive the documented HTTP workflow (upload → solve →
// verify → stats), then shut it down with SIGTERM and require a clean exit.
// This is the same sequence the CI smoke step runs with curl.

// launchPopserved starts the built daemon with args, waits for its address
// line, and returns the base URL plus the process for shutdown. The process
// is killed at test cleanup if still running.
func launchPopserved(t *testing.T, bin string, args ...string) (string, *exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// First stdout line announces the address.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading address line: %v (stderr: %s)", err, stderr.String())
	}
	const prefix = "popserved listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected startup line %q", line)
	}
	return "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix)), cmd, &stderr
}

// stopPopserved sends SIGTERM and requires a clean exit 0.
func stopPopserved(t *testing.T, cmd *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func TestCLIPopservedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := filepath.Join(t.TempDir(), "popserved")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/popserved").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	base, cmd, stderr := launchPopserved(t, bin, "-workers", "2")

	post := func(path, contentType, body string, out any) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if out != nil {
			if err := json.Unmarshal(buf.Bytes(), out); err != nil {
				t.Fatalf("POST %s: bad JSON %q: %v", path, buf.String(), err)
			}
		}
		return resp.StatusCode, buf.String()
	}

	// Generate an instance with the sibling tool and upload it.
	instance, err := runTool(t, "", "./cmd/geninstance", "-kind", "capacitated",
		"-applicants", "24", "-posts", "10", "-maxlen", "4", "-maxcap", "3", "-seed", "13")
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, instance)
	}
	var info struct {
		ID          string `json:"id"`
		Capacitated bool   `json:"capacitated"`
	}
	if code, raw := post("/v1/instances", "text/plain", instance, &info); code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, raw)
	}
	if !info.Capacitated || info.ID == "" {
		t.Fatalf("upload info: %+v", info)
	}

	// Solve, twice: the repeat must come from the cache.
	solveBody := fmt.Sprintf(`{"instance": %q, "mode": "maxcard"}`, info.ID)
	var solved struct {
		Exists bool    `json:"exists"`
		Cached bool    `json:"cached"`
		PostOf []int32 `json:"post_of"`
	}
	if code, raw := post("/v1/solve", "application/json", solveBody, &solved); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if !solved.Exists || solved.Cached {
		t.Fatalf("first solve: %+v", solved)
	}
	first := append([]int32(nil), solved.PostOf...)
	if code, _ := post("/v1/solve", "application/json", solveBody, &solved); code != http.StatusOK || !solved.Cached {
		t.Fatalf("repeat solve not cached: %d %+v", code, solved)
	}

	// Verify the solution over HTTP.
	pb, _ := json.Marshal(first)
	var verdict struct {
		Popular bool `json:"popular"`
	}
	if code, raw := post("/v1/verify", "application/json",
		fmt.Sprintf(`{"instance": %q, "post_of": %s}`, info.ID, pb), &verdict); code != http.StatusOK || !verdict.Popular {
		t.Fatalf("verify: %d %s", code, raw)
	}

	// Stats went up.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]int64
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats["requests"] < 2 || stats["cache_hits"] < 1 || stats["solves"] < 1 {
		t.Fatalf("stats: %v", stats)
	}

	// SIGTERM → clean exit 0.
	stopPopserved(t, cmd, stderr)
}

// TestCLIPopservedStoreRestart proves the persistence contract end to end:
// instances uploaded to a -store daemon (one text, one binary) survive a
// SIGTERM restart — the second process re-serves both from mmap'd store
// files with zero re-parses (uploads_text == uploads_binary == 0 while
// store_loaded == 2), under the same ids, with solves still working — and
// an eviction is equally durable.
func TestCLIPopservedStoreRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := filepath.Join(t.TempDir(), "popserved")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/popserved").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	store := t.TempDir()

	textIns, err := runTool(t, "", "./cmd/geninstance", "-kind", "solvable",
		"-applicants", "30", "-posts", "40", "-maxlen", "4", "-seed", "21")
	if err != nil {
		t.Fatalf("geninstance: %v\n%s", err, textIns)
	}
	binIns, err := runTool(t, "", "./cmd/geninstance", "-kind", "ties",
		"-applicants", "25", "-posts", "20", "-maxlen", "4", "-seed", "22", "-format", "binary")
	if err != nil {
		t.Fatalf("geninstance -format binary: %v", err)
	}

	getStats := func(base string) map[string]int64 {
		t.Helper()
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]int64
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	upload := func(base, contentType, body string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/instances", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.ID == "" {
			t.Fatalf("upload: id missing (%v)", err)
		}
		return info.ID
	}

	base, cmd, stderr := launchPopserved(t, bin, "-store", store)
	textID := upload(base, "text/plain", textIns)
	binID := upload(base, "application/x-popmatch-binary", binIns)
	s1 := getStats(base)
	if s1["uploads_text"] != 1 || s1["uploads_binary"] != 1 || s1["store_loaded"] != 0 {
		t.Fatalf("first run stats: %v", s1)
	}
	stopPopserved(t, cmd, stderr)

	// Restart on the same store: both instances come back from disk.
	base, cmd, stderr = launchPopserved(t, bin, "-store", store)
	s2 := getStats(base)
	if s2["store_loaded"] != 2 || s2["instances"] != 2 {
		t.Fatalf("restart stats: %v", s2)
	}
	if s2["uploads_text"] != 0 || s2["uploads_binary"] != 0 {
		t.Fatalf("restart re-parsed an upload: %v", s2)
	}
	for _, id := range []string{textID, binID} {
		resp, err := http.Get(base + "/v1/instances/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("instance %s did not survive the restart: %d", id, resp.StatusCode)
		}
	}
	solveBody := fmt.Sprintf(`{"instance": %q, "mode": "maxcard"}`, textID)
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	var solved struct {
		Exists bool `json:"exists"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !solved.Exists {
		t.Fatalf("solve after restart: %d %+v", resp.StatusCode, solved)
	}

	// Evict one; it must stay gone across another restart.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/instances/"+binID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("evict status %d", dresp.StatusCode)
	}
	stopPopserved(t, cmd, stderr)

	base, cmd, stderr = launchPopserved(t, bin, "-store", store)
	s3 := getStats(base)
	if s3["store_loaded"] != 1 || s3["instances"] != 1 {
		t.Fatalf("post-evict restart stats: %v", s3)
	}
	stopPopserved(t, cmd, stderr)
}
