#include "sched/wasm_sched.h"

#include "codec/wire.h"

namespace waran::sched {

Result<codec::SchedResponse> WasmIntraScheduler::schedule(
    const codec::SchedRequest& req) {
  codec::SchedResponse resp;
  WARAN_CHECK_OK(schedule_into(req, resp));
  return resp;
}

Status WasmIntraScheduler::schedule_into(const codec::SchedRequest& req,
                                         codec::SchedResponse& out) {
  codec::wire::encode_request(req, request_);
  // Room for one grant per requested UE, so a scheduler that grants more
  // UEs than the slot's previous plugin did (a hot swap from mt to rr)
  // does not grow the buffers mid-slot.
  output_.reserve(codec::wire::kRespHeaderSize +
                  req.ues.size() * codec::wire::kAllocRecordSize);
  out.allocs.reserve(req.ues.size());
  WARAN_CHECK_OK(manager_.call(slot_, "schedule", request_, output_));
  return codec::wire::decode_response(output_, out);
}

}  // namespace waran::sched
