package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP/1.1 keep-alive client: at most
// runtime.NumCPU() connections, so an op that finds them all busy waits on
// the client, and that wait counts in its latency.
type client struct {
	base string
	hc   *http.Client
}

func newClient(ts *httptest.Server) *client {
	n := runtime.NumCPU()
	return &client{base: ts.URL, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// requestID names request k of op i. It is the span id of the request's
// exchange, and the server's spans join on it.
func requestID(i int64, k int) string {
	return strconv.FormatInt(i, 10) + "." + strconv.Itoa(k)
}

// do sends one request and reads the whole response body into buf,
// returning the status. When the op is traced it records the connection
// wait (from the op's due time, or the end of its previous request, to the
// moment a connection is handed over) and the exchange on that connection.
func (c *client) do(ctx context.Context, ot *opTrace, rid, method, path, ctype string, body []byte, buf *bytes.Buffer) (int, error) {
	// The hooks run on the transport's goroutines; they store offsets from
	// the tracer's base time so the spans keep the monotonic clock.
	var gotConn, wrote, first atomic.Int64
	if ot != nil {
		base := ot.t.base
		stamp := func(v *atomic.Int64) { v.Store(int64(time.Since(base))) }
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { stamp(&gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&wrote) },
			GotFirstResponseByte: func() { stamp(&first) },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if ot != nil && gotConn.Load() != 0 {
		end := time.Now()
		at := func(v *atomic.Int64) time.Time { return ot.t.base.Add(time.Duration(v.Load())) }
		ot.child("bench.conn_wait", rid+"/conn", "", ot.cursor, at(&gotConn))
		ot.child("http.exchange", rid, "", at(&gotConn), end)
		ot.ttfb = append(ot.ttfb, ms(at(&first).Sub(at(&wrote))))
		ot.body = append(ot.body, ms(end.Sub(at(&first))))
		ot.cursor = end
	}
	return resp.StatusCode, nil
}

// expect turns a non-wanted status into an error carrying the body.
func expect(status, want int, what string, buf *bytes.Buffer) error {
	if status != want {
		return fmt.Errorf("%s: status %d, want %d: %.200s", what, status, want, buf.Bytes())
	}
	return nil
}
