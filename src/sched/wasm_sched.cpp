#include "sched/wasm_sched.h"

#include "codec/wire.h"

namespace waran::sched {

Result<codec::SchedResponse> WasmIntraScheduler::schedule(
    const codec::SchedRequest& req) {
  static const std::string kEntry = "schedule";
  std::vector<uint8_t> input = codec::wire::encode_request(req);
  WARAN_TRY(output, manager_.call(slot_, kEntry, input));
  return codec::wire::decode_response(output);
}

}  // namespace waran::sched
