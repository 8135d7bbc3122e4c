package server

import "repro/internal/sched"

// QueueLen exposes the scheduler's queue depth for one lane to tests.
func (s *Server) QueueLen(class sched.Class) int { return s.sch.QueueLen(class) }
