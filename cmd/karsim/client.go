package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/serve"
)

// runClient talks to a running daemon (the scripts' curl replacement):
//
//	karsim client -addr HOST:PORT -probe /readyz
//	    GET a path, print the body, fail on a non-2xx status.
//
//	karsim client -addr HOST:PORT -post /v1/scenarios -body req.json -result out.json
//	    POST one job request, wait for its terminal state, write the
//	    result document verbatim; fail unless it ends "done".
func runClient(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("karsim client", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8377", "daemon address")
		probe      = fs.String("probe", "", "GET this path, print the body, exit per status")
		post       = fs.String("post", "", "POST one job request to this path and wait for it to finish")
		bodyFile   = fs.String("body", "", "request body file for -post")
		resultFile = fs.String("result", "", "write the finished job's result document to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := "http://" + *addr
	switch {
	case *probe != "":
		return runProbe(base, *probe, stdout)
	case *post != "":
		return runPost(base, *post, *bodyFile, *resultFile, stdout)
	}
	return errors.New("need -probe or -post")
}

func runProbe(base, path string, stdout io.Writer) error {
	status, body, err := roundTrip(http.Get(base + path))
	if err != nil {
		return err
	}
	stdout.Write(body)
	if status < 200 || status > 299 {
		return fmt.Errorf("GET %s: %d", path, status)
	}
	return nil
}

func runPost(base, path, bodyFile, resultFile string, stdout io.Writer) error {
	if bodyFile == "" {
		return errors.New("-post needs -body")
	}
	body, err := os.ReadFile(bodyFile)
	if err != nil {
		return err
	}
	st, err := submit(base, path, body)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "job %s: %s\n", st.ID, st.State)
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if resultFile == "" {
		return nil
	}
	status, result, err := roundTrip(http.Get(base + "/v1/jobs/" + st.ID + "/result"))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("result %s: %d: %s", st.ID, status, bytes.TrimSpace(result))
	}
	return os.WriteFile(resultFile, result, 0o644)
}

// roundTrip reads a response to its end and closes it.
func roundTrip(resp *http.Response, err error) (status int, body []byte, _ error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// submit POSTs a job request in the daemon's wait mode and returns the
// job's final status. While the daemon's queue is full (429) it waits
// and retries, for as long as that takes: a quarter second per second
// of Retry-After, since the queue usually clears far sooner than the
// whole seconds the header can express.
func submit(base, path string, body []byte) (st serve.JobStatus, err error) {
	for {
		resp, err := http.Post(base+path+"?wait=1", "application/json", bytes.NewReader(body))
		status, data, err := roundTrip(resp, err)
		if err != nil {
			return st, err
		}
		switch status {
		case http.StatusOK:
			if err := json.Unmarshal(data, &st); err != nil {
				return st, fmt.Errorf("submit response: %w", err)
			}
			return st, nil
		case http.StatusTooManyRequests:
			delay := 100 * time.Millisecond
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				delay = time.Duration(secs) * 250 * time.Millisecond
			}
			time.Sleep(delay)
		default:
			return st, fmt.Errorf("submit %s: %d: %s", path, status, bytes.TrimSpace(data))
		}
	}
}
