package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// envStamp describes where and how a run measured; it is printed with
// every result.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Workload   string `json:"workload"`
	Clients    int    `json:"clients"`
	Instances  int    `json:"instances"`
	Params     params `json:"params"`
	Engine     string `json:"engine_options"`
	WALFlush   string `json:"wal_flush"`
	Filesystem string `json:"workdir_filesystem"`
}

// commit is the VCS revision the go command stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func newEnvStamp(cfg config, clients int) envStamp {
	wal := "none"
	if cfg.w.durable {
		wal = "fsync every write (SyncEvery 1)"
	}
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Workload:   cfg.w.name,
		Clients:    clients,
		Instances:  cfg.w.instances,
		Params:     cfg.p,
		Engine:     fmt.Sprintf("%+v", cfg.w.opts),
		WALFlush:   wal,
		Filesystem: filesystem(cfg.workDir),
	}
}
