package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The peak RSS of codec work is measured in a child process that holds no
// trace in memory: like a simulator calling atc_code for every miss, it
// streams each archive's input from a raw file through Code, then streams
// Decode against a reference file. Its peak RSS is therefore the
// library's, not the benchmark's buffers.

// childEnv names the child's job file; when it is set, the benchmark
// binary (or its test binary) runs as the child.
const childEnv = "PERFBENCH_CODEC_CHILD"

// childJob is one archive of the child's job file.
type childJob struct {
	Lossy    bool   `json:"lossy"`
	Segment  int    `json:"segment"`
	Interval int    `json:"interval"`
	In       string `json:"in"`  // raw input trace
	Ref      string `json:"ref"` // raw trace the decode must return
	Out      string `json:"out"` // archive to write
}

// childRSSMiB writes the inputs and reference traces as raw files (once
// per run), runs the child over every archive, and returns its peak RSS.
func childRSSMiB(dir string, arcs []*built) (float64, error) {
	var jobs []childJob
	for _, a := range arcs {
		j := childJob{
			Lossy: a.spec.lossy, Segment: a.spec.segment, Interval: a.spec.interval,
			In:  filepath.Join(dir, a.spec.name+".in.raw"),
			Ref: filepath.Join(dir, a.spec.name+".ref.raw"),
			Out: filepath.Join(dir, "child-"+a.spec.name+".atc"),
		}
		if err := writeRaw(j.In, a.input); err != nil {
			return 0, err
		}
		if err := writeRaw(j.Ref, a.ref); err != nil {
			return 0, err
		}
		jobs = append(jobs, j)
	}
	jobFile := filepath.Join(dir, "child.json")
	b, err := json.Marshal(jobs)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(jobFile, b, 0o644); err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+jobFile)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("codec child: %w", err)
	}
	var res struct{ PeakRSSMiB float64 }
	if err := json.Unmarshal(out, &res); err != nil {
		return 0, fmt.Errorf("codec child output %q: %w", out, err)
	}
	return res.PeakRSSMiB, nil
}

// writeRaw writes xs to path as a raw trace, unless an earlier call did.
func writeRaw(path string, xs []uint64) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		bw.Write(b[:])
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// runChild is the child process: it runs every job of the job file and
// prints its peak RSS. Any error, a wrong decode included, exits non-zero.
func runChild(jobFile string) error {
	b, err := os.ReadFile(jobFile)
	if err != nil {
		return err
	}
	var jobs []childJob
	if err := json.Unmarshal(b, &jobs); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := childJobRun(j); err != nil {
			return fmt.Errorf("%s: %w", j.Out, err)
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"PeakRSSMiB": rss})
}

// rawReader streams a raw trace file.
type rawReader struct {
	br *bufio.Reader
	b  [8]byte
}

func (r *rawReader) next() (uint64, error) {
	if _, err := io.ReadFull(r.br, r.b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.b[:]), nil
}

func openRaw(path string) (*os.File, *rawReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, &rawReader{br: bufio.NewReaderSize(f, 64<<10)}, nil
}

// childJobRun encodes one input file into an archive and checks its
// decode against the reference file, through the same drivers as the
// measured runs.
func childJobRun(j childJob) error {
	a := archiveSpec{lossy: j.Lossy, segment: j.Segment, interval: j.Interval}
	f, in, err := openRaw(j.In)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, err := encodeArchive(j.Out, in.next, a.options(), nil); err != nil {
		return err
	}
	rf, ref, err := openRaw(j.Ref)
	if err != nil {
		return err
	}
	defer rf.Close()
	_, _, _, err = decodeArchive(j.Out, ref.next, nil, nil)
	return err
}
