package tcpsim

// Stop ceases new data transmission (retransmissions of outstanding
// data continue until acknowledged).
func (s *senderCore) Stop() { s.stopped = true }
