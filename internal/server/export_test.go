package server

import (
	"sync"

	"repro/internal/sched"
)

// QueueLen exposes the scheduler's queue depth for one lane to tests.
func (s *Server) QueueLen(class sched.Class) int { return s.sch.QueueLen(class) }

// PinWorker submits a task to class's lane that blocks until release is
// called, so a test can hold a worker busy without sleeps in the server.
// release is idempotent and returns once the task has finished.
func (s *Server) PinWorker(class sched.Class) (release func(), err error) {
	unpin := make(chan struct{})
	wait, err := s.sch.Submit(class, func() { <-unpin })
	if err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(unpin)
			wait()
		})
	}, nil
}
