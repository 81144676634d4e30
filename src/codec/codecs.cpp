// Implementations of the four Codec flavours. Field numbering is part of
// each format's schema and documented inline; TLV and PbLite skip unknown
// fields, giving the forward-compatibility the paper's interop story needs
// (a newer plugin can emit fields an older host ignores).
#include "codec/codec.h"

#include <cinttypes>

#include "codec/json.h"
#include "codec/wire.h"
#include "common/bytes.h"

namespace waran::codec {
namespace {

// ---------------------------------------------------------------- Wire ----

class WireCodec final : public Codec {
 public:
  const char* name() const override { return "wire"; }
  std::vector<uint8_t> encode_request(const SchedRequest& req) const override {
    std::vector<uint8_t> out;
    wire::encode_request(req, out);
    return out;
  }
  Result<SchedRequest> decode_request(std::span<const uint8_t> bytes) const override {
    SchedRequest req;
    WARAN_CHECK_OK(wire::decode_request(bytes, req));
    return req;
  }
  std::vector<uint8_t> encode_response(const SchedResponse& resp) const override {
    std::vector<uint8_t> out;
    wire::encode_response(resp, out);
    return out;
  }
  Result<SchedResponse> decode_response(std::span<const uint8_t> bytes) const override {
    SchedResponse resp;
    WARAN_CHECK_OK(wire::decode_response(bytes, resp));
    return resp;
  }
};

// ----------------------------------------------------------------- TLV ----
// ASN.1-flavoured tag-length-value. Tags are single bytes; lengths ULEB128.
// Request:  1:slot(u32le) 2:prb_quota(u32le) 3:ue(nested)
//   UE:     1:rnti 2:cqi 3:mcs 4:buffer(u32le) 5:avg(f64le) 6:ach(f64le)
// Response: 1:alloc(nested)  Alloc: 1:rnti 2:prbs (u32le)

void tlv_put_u32(ByteWriter& w, uint8_t tag, uint32_t v) {
  w.u8(tag);
  w.uleb32(4);
  w.u32le(v);
}

void tlv_put_f64(ByteWriter& w, uint8_t tag, double v) {
  w.u8(tag);
  w.uleb32(8);
  w.f64le(v);
}

void tlv_put_nested(ByteWriter& w, uint8_t tag, const ByteWriter& inner) {
  w.u8(tag);
  w.uleb32(static_cast<uint32_t>(inner.size()));
  w.bytes(inner.data());
}

struct TlvField {
  uint8_t tag;
  std::span<const uint8_t> value;
};

Result<TlvField> tlv_next(ByteReader& r) {
  WARAN_TRY(tag, r.u8());
  WARAN_TRY(len, r.uleb32());
  WARAN_TRY(value, r.bytes(len));
  return TlvField{tag, value};
}

Result<uint32_t> tlv_as_u32(const TlvField& f) {
  if (f.value.size() != 4) return Error::decode("tlv: expected 4-byte value");
  ByteReader r(f.value);
  return r.u32le();
}

Result<double> tlv_as_f64(const TlvField& f) {
  if (f.value.size() != 8) return Error::decode("tlv: expected 8-byte value");
  ByteReader r(f.value);
  return r.f64le();
}

class TlvCodec final : public Codec {
 public:
  const char* name() const override { return "tlv"; }

  std::vector<uint8_t> encode_request(const SchedRequest& req) const override {
    ByteWriter w;
    tlv_put_u32(w, 1, req.slot);
    tlv_put_u32(w, 2, req.prb_quota);
    for (const UeInfo& ue : req.ues) {
      ByteWriter inner;
      tlv_put_u32(inner, 1, ue.rnti);
      tlv_put_u32(inner, 2, ue.cqi);
      tlv_put_u32(inner, 3, ue.mcs);
      tlv_put_u32(inner, 4, ue.buffer_bytes);
      tlv_put_u32(inner, 7, ue.tbs_per_prb);
      tlv_put_f64(inner, 5, ue.avg_tput_bps);
      tlv_put_f64(inner, 6, ue.achievable_bps);
      tlv_put_nested(w, 3, inner);
    }
    return w.take();
  }

  Result<SchedRequest> decode_request(std::span<const uint8_t> bytes) const override {
    SchedRequest req;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, tlv_next(r));
      switch (f.tag) {
        case 1: {
          WARAN_TRY(v, tlv_as_u32(f));
          req.slot = v;
          break;
        }
        case 2: {
          WARAN_TRY(v, tlv_as_u32(f));
          req.prb_quota = v;
          break;
        }
        case 3: {
          WARAN_TRY(ue, decode_ue(f.value));
          req.ues.push_back(ue);
          break;
        }
        default:
          break;  // unknown field: skip (extensibility)
      }
    }
    return req;
  }

  std::vector<uint8_t> encode_response(const SchedResponse& resp) const override {
    ByteWriter w;
    for (const SchedAlloc& a : resp.allocs) {
      ByteWriter inner;
      tlv_put_u32(inner, 1, a.rnti);
      tlv_put_u32(inner, 2, a.prbs);
      tlv_put_nested(w, 1, inner);
    }
    return w.take();
  }

  Result<SchedResponse> decode_response(std::span<const uint8_t> bytes) const override {
    SchedResponse resp;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, tlv_next(r));
      if (f.tag == 1) {
        SchedAlloc a;
        ByteReader ir(f.value);
        while (!ir.at_end()) {
          WARAN_TRY(g, tlv_next(ir));
          if (g.tag == 1) {
            WARAN_TRY(v, tlv_as_u32(g));
            a.rnti = v;
          } else if (g.tag == 2) {
            WARAN_TRY(v, tlv_as_u32(g));
            a.prbs = v;
          }
        }
        resp.allocs.push_back(a);
      }
    }
    return resp;
  }

 private:
  static Result<UeInfo> decode_ue(std::span<const uint8_t> bytes) {
    UeInfo ue;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, tlv_next(r));
      switch (f.tag) {
        case 1: { WARAN_TRY(v, tlv_as_u32(f)); ue.rnti = v; break; }
        case 2: { WARAN_TRY(v, tlv_as_u32(f)); ue.cqi = v; break; }
        case 3: { WARAN_TRY(v, tlv_as_u32(f)); ue.mcs = v; break; }
        case 4: { WARAN_TRY(v, tlv_as_u32(f)); ue.buffer_bytes = v; break; }
        case 5: { WARAN_TRY(v, tlv_as_f64(f)); ue.avg_tput_bps = v; break; }
        case 6: { WARAN_TRY(v, tlv_as_f64(f)); ue.achievable_bps = v; break; }
        case 7: { WARAN_TRY(v, tlv_as_u32(f)); ue.tbs_per_prb = v; break; }
        default: break;
      }
    }
    return ue;
  }
};

// ---------------------------------------------------------------- JSON ----

class JsonCodec final : public Codec {
 public:
  const char* name() const override { return "json"; }

  std::vector<uint8_t> encode_request(const SchedRequest& req) const override {
    Json ues = Json::array();
    for (const UeInfo& ue : req.ues) {
      Json o = Json::object();
      o.set("rnti", ue.rnti)
          .set("cqi", ue.cqi)
          .set("mcs", ue.mcs)
          .set("buffer", ue.buffer_bytes)
          .set("tbs_prb", ue.tbs_per_prb)
          .set("avg_tput", ue.avg_tput_bps)
          .set("achievable", ue.achievable_bps);
      ues.push_back(std::move(o));
    }
    Json root = Json::object();
    root.set("slot", req.slot).set("quota", req.prb_quota).set("ues", std::move(ues));
    std::string s = root.dump();
    return {s.begin(), s.end()};
  }

  Result<SchedRequest> decode_request(std::span<const uint8_t> bytes) const override {
    auto root = Json::parse(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    if (!root.ok()) return root.error();
    if (!root->is_object()) return Error::decode("json request: not an object");
    SchedRequest req;
    req.slot = static_cast<uint32_t>((*root)["slot"].as_number());
    req.prb_quota = static_cast<uint32_t>((*root)["quota"].as_number());
    const Json& ues = (*root)["ues"];
    if (!ues.is_array()) return Error::decode("json request: missing ues array");
    for (const Json& u : ues.as_array()) {
      if (!u.is_object()) return Error::decode("json request: ue not an object");
      UeInfo ue;
      ue.rnti = static_cast<uint32_t>(u["rnti"].as_number());
      ue.cqi = static_cast<uint32_t>(u["cqi"].as_number());
      ue.mcs = static_cast<uint32_t>(u["mcs"].as_number());
      ue.buffer_bytes = static_cast<uint32_t>(u["buffer"].as_number());
      ue.tbs_per_prb = static_cast<uint32_t>(u["tbs_prb"].as_number());
      ue.avg_tput_bps = u["avg_tput"].as_number();
      ue.achievable_bps = u["achievable"].as_number();
      req.ues.push_back(ue);
    }
    return req;
  }

  std::vector<uint8_t> encode_response(const SchedResponse& resp) const override {
    Json allocs = Json::array();
    for (const SchedAlloc& a : resp.allocs) {
      Json o = Json::object();
      o.set("rnti", a.rnti).set("prbs", a.prbs);
      allocs.push_back(std::move(o));
    }
    Json root = Json::object();
    root.set("allocs", std::move(allocs));
    std::string s = root.dump();
    return {s.begin(), s.end()};
  }

  Result<SchedResponse> decode_response(std::span<const uint8_t> bytes) const override {
    auto root = Json::parse(
        std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    if (!root.ok()) return root.error();
    SchedResponse resp;
    const Json& allocs = (*root)["allocs"];
    if (!allocs.is_array()) return Error::decode("json response: missing allocs");
    for (const Json& a : allocs.as_array()) {
      resp.allocs.push_back({static_cast<uint32_t>(a["rnti"].as_number()),
                             static_cast<uint32_t>(a["prbs"].as_number())});
    }
    return resp;
  }
};

// -------------------------------------------------------------- PbLite ----
// Protobuf wire format subset: key = (field_no << 3) | wire_type with
// wire_type 0 = varint, 1 = fixed64, 2 = length-delimited.
// Request:  1 slot(varint) 2 quota(varint) 3 ue(msg)
//   UE:     1 rnti 2 cqi 3 mcs 4 buffer (varint) 5 avg 6 ach (fixed64)
// Response: 1 alloc(msg)  Alloc: 1 rnti 2 prbs (varint)

void pb_varint(ByteWriter& w, uint32_t field, uint64_t v) {
  w.uleb((field << 3) | 0);
  w.uleb(v);
}

void pb_fixed64(ByteWriter& w, uint32_t field, double v) {
  w.uleb((field << 3) | 1);
  w.f64le(v);
}

void pb_msg(ByteWriter& w, uint32_t field, const ByteWriter& inner) {
  w.uleb((field << 3) | 2);
  w.uleb32(static_cast<uint32_t>(inner.size()));
  w.bytes(inner.data());
}

struct PbField {
  uint32_t number;
  uint32_t wire_type;
  uint64_t varint = 0;
  double f64 = 0;
  std::span<const uint8_t> bytes;
};

Result<PbField> pb_next(ByteReader& r) {
  WARAN_TRY(key, r.uleb32());
  PbField f;
  f.number = key >> 3;
  f.wire_type = key & 7;
  switch (f.wire_type) {
    case 0: {
      WARAN_TRY(v, r.uleb(64));
      f.varint = v;
      break;
    }
    case 1: {
      WARAN_TRY(v, r.f64le());
      f.f64 = v;
      break;
    }
    case 2: {
      WARAN_TRY(len, r.uleb32());
      WARAN_TRY(b, r.bytes(len));
      f.bytes = b;
      break;
    }
    default:
      return Error::decode("pb: unsupported wire type " + std::to_string(f.wire_type));
  }
  return f;
}

class PbLiteCodec final : public Codec {
 public:
  const char* name() const override { return "pb-lite"; }

  std::vector<uint8_t> encode_request(const SchedRequest& req) const override {
    ByteWriter w;
    pb_varint(w, 1, req.slot);
    pb_varint(w, 2, req.prb_quota);
    for (const UeInfo& ue : req.ues) {
      ByteWriter inner;
      pb_varint(inner, 1, ue.rnti);
      pb_varint(inner, 2, ue.cqi);
      pb_varint(inner, 3, ue.mcs);
      pb_varint(inner, 4, ue.buffer_bytes);
      pb_varint(inner, 7, ue.tbs_per_prb);
      pb_fixed64(inner, 5, ue.avg_tput_bps);
      pb_fixed64(inner, 6, ue.achievable_bps);
      pb_msg(w, 3, inner);
    }
    return w.take();
  }

  Result<SchedRequest> decode_request(std::span<const uint8_t> bytes) const override {
    SchedRequest req;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, pb_next(r));
      if (f.number == 1 && f.wire_type == 0) {
        req.slot = static_cast<uint32_t>(f.varint);
      } else if (f.number == 2 && f.wire_type == 0) {
        req.prb_quota = static_cast<uint32_t>(f.varint);
      } else if (f.number == 3 && f.wire_type == 2) {
        WARAN_TRY(ue, decode_ue(f.bytes));
        req.ues.push_back(ue);
      }
    }
    return req;
  }

  std::vector<uint8_t> encode_response(const SchedResponse& resp) const override {
    ByteWriter w;
    for (const SchedAlloc& a : resp.allocs) {
      ByteWriter inner;
      pb_varint(inner, 1, a.rnti);
      pb_varint(inner, 2, a.prbs);
      pb_msg(w, 1, inner);
    }
    return w.take();
  }

  Result<SchedResponse> decode_response(std::span<const uint8_t> bytes) const override {
    SchedResponse resp;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, pb_next(r));
      if (f.number == 1 && f.wire_type == 2) {
        SchedAlloc a;
        ByteReader ir(f.bytes);
        while (!ir.at_end()) {
          WARAN_TRY(g, pb_next(ir));
          if (g.number == 1 && g.wire_type == 0) a.rnti = static_cast<uint32_t>(g.varint);
          if (g.number == 2 && g.wire_type == 0) a.prbs = static_cast<uint32_t>(g.varint);
        }
        resp.allocs.push_back(a);
      }
    }
    return resp;
  }

 private:
  static Result<UeInfo> decode_ue(std::span<const uint8_t> bytes) {
    UeInfo ue;
    ByteReader r(bytes);
    while (!r.at_end()) {
      WARAN_TRY(f, pb_next(r));
      switch (f.number) {
        case 1: ue.rnti = static_cast<uint32_t>(f.varint); break;
        case 2: ue.cqi = static_cast<uint32_t>(f.varint); break;
        case 3: ue.mcs = static_cast<uint32_t>(f.varint); break;
        case 4: ue.buffer_bytes = static_cast<uint32_t>(f.varint); break;
        case 5: ue.avg_tput_bps = f.f64; break;
        case 6: ue.achievable_bps = f.f64; break;
        case 7: ue.tbs_per_prb = static_cast<uint32_t>(f.varint); break;
        default: break;
      }
    }
    return ue;
  }
};

}  // namespace

std::unique_ptr<Codec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kWire: return std::make_unique<WireCodec>();
    case CodecKind::kTlv: return std::make_unique<TlvCodec>();
    case CodecKind::kJson: return std::make_unique<JsonCodec>();
    case CodecKind::kPbLite: return std::make_unique<PbLiteCodec>();
  }
  return nullptr;
}

const char* to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kWire: return "wire";
    case CodecKind::kTlv: return "tlv";
    case CodecKind::kJson: return "json";
    case CodecKind::kPbLite: return "pb-lite";
  }
  return "?";
}

}  // namespace waran::codec
