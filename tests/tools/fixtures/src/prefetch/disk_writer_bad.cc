// Lint fixture: SharedDiskQueue mutations outside the whitelisted
// serving translation units.
// Expected findings: line 13 disk-queue-single-writer (ServeBatch),
// line 14 (ServeOne), line 15 (TryServeBatch), line 16 (TryServeOne),
// line 17 (Reset). Line 20: no disk/queue receiver.

struct FakeQueue {
  void ServeBatch(int); void ServeOne(int); void TryServeBatch(int);
  void TryServeOne(int); void Reset();
};

void DiskWriterBad(FakeQueue* shared_disk_, FakeQueue& disk_queue, int p) {
  shared_disk_->ServeBatch(p);
  disk_queue.ServeOne(p);
  shared_disk_->TryServeBatch(p);
  disk_queue.TryServeOne(p);
  shared_disk_->Reset();
}

void NotADisk(FakeQueue& model, int p) { model.Reset(); }
