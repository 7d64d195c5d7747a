package httplimit

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// failingBody fails the test's expectation the moment anything reads it:
// a request refused on its declared length must be refused unread.
type failingBody struct{ reads int }

func (b *failingBody) Read([]byte) (int, error) {
	b.reads++
	return 0, errors.New("the body was read")
}
func (*failingBody) Close() error { return nil }

func post(body io.Reader) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/", body)
}

func isTooLarge(err error, limit int64) bool {
	var tooLarge *http.MaxBytesError
	return errors.As(err, &tooLarge) && tooLarge.Limit == limit
}

func TestDeclaredOversizeIsRefusedUnread(t *testing.T) {
	body := new(failingBody)
	req := post(body)
	req.ContentLength = MaxJSONBody + 1
	if err := DecodeJSON(httptest.NewRecorder(), req, new(map[string]any)); !isTooLarge(err, MaxJSONBody) {
		t.Errorf("DecodeJSON of a request declaring limit+1 bytes: %v, want *http.MaxBytesError", err)
	}
	if body.reads != 0 {
		t.Errorf("DecodeJSON read the body %d times before refusing its declared length", body.reads)
	}
}

func TestDecodeJSONAtAndOverTheLimit(t *testing.T) {
	// A JSON string padded so that the whole value is exactly n bytes.
	value := func(n int) string { return `{"k":"` + strings.Repeat("x", n-len(`{"k":""}`)) + `"}` }
	var v struct{ K string }

	if err := DecodeJSON(httptest.NewRecorder(), post(strings.NewReader(value(MaxJSONBody))), &v); err != nil || len(v.K) == 0 {
		t.Fatalf("a value of exactly MaxJSONBody bytes: %v", err)
	}
	// One byte over, with an honest Content-Length: refused up front.
	if err := DecodeJSON(httptest.NewRecorder(), post(strings.NewReader(value(MaxJSONBody+1))), &v); !isTooLarge(err, MaxJSONBody) {
		t.Fatalf("a value of MaxJSONBody+1 declared bytes: %v, want *http.MaxBytesError", err)
	}
	// One byte over with no declared length (chunked): the read that
	// crosses the limit fails.
	req := post(io.MultiReader(strings.NewReader(value(MaxJSONBody + 1))))
	if req.ContentLength > 0 {
		t.Fatalf("test request declares %d bytes, want an undeclared length", req.ContentLength)
	}
	if err := DecodeJSON(httptest.NewRecorder(), req, &v); !isTooLarge(err, MaxJSONBody) {
		t.Fatalf("a value of MaxJSONBody+1 undeclared bytes: %v, want *http.MaxBytesError", err)
	}
}

func TestDecodeJSONTakesExactlyOneValue(t *testing.T) {
	var v struct{ K int }
	for body, ok := range map[string]bool{
		`{"k":1}`:            true,
		"{\"k\":1}\n \t\r\n": true, // what json.Encoder and curl -d @file send
		`{"k":1} trailing`:   false,
		`{"k":1}{"k":2}`:     false,
		`{"k":1}]`:           false,
		`{"k":1`:             false,
		``:                   false,
	} {
		err := DecodeJSON(httptest.NewRecorder(), post(strings.NewReader(body)), &v)
		if (err == nil) != ok {
			t.Errorf("DecodeJSON(%q) = %v, want accepted: %v", body, err, ok)
		}
	}
}

// TestHeaderTimeoutCutsDribblingClient: a client that opens a connection
// and never finishes its request headers is dropped once the header
// timeout passes, without the handler ever running.
func TestHeaderTimeoutCutsDribblingClient(t *testing.T) {
	const timeout = 100 * time.Millisecond
	handled := make(chan struct{}, 1)
	srv := NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { handled <- struct{}{} }), timeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends
	// them; then one more header byte every 20 ms, so the connection is
	// never idle — only a bound on the headers as a whole can cut it.
	if _, err := io.WriteString(conn, "POST /v1/check HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	dribbled := make(chan struct{})
	go func() {
		defer close(dribbled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				if _, err := conn.Write([]byte("a")); err != nil {
					return // the server hung up
				}
			}
		}
	}()
	defer func() { close(stop); <-dribbled }()

	// The server answers 408 or just closes; either way the read ends —
	// well before the deadline below — and not with a handler's response.
	start := time.Now()
	conn.SetReadDeadline(start.Add(50 * timeout))
	reply, err := io.ReadAll(conn)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatalf("the server kept a dribbling client for %v with a %v header timeout", time.Since(start), timeout)
		}
	}
	if took := time.Since(start); took < timeout/2 {
		t.Fatalf("connection dropped after %v, before the %v header timeout could have fired", took, timeout)
	}
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 408") {
		t.Fatalf("server replied %q to an unfinished request", reply)
	}
	select {
	case <-handled:
		t.Fatal("the handler ran on a request whose headers never completed")
	default:
	}
}
