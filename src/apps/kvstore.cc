#include "kvstore.hh"

namespace lynx::apps {

namespace {

void
putU16(std::vector<std::uint8_t> &buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
    buf.push_back(static_cast<std::uint8_t>(v >> 16));
    buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint16_t
getU16(std::span<const std::uint8_t> buf, std::size_t off)
{
    return static_cast<std::uint16_t>(buf[off] | (buf[off + 1] << 8));
}

std::uint32_t
getU32(std::span<const std::uint8_t> buf, std::size_t off)
{
    return static_cast<std::uint32_t>(buf[off]) |
           (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
           (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
           (static_cast<std::uint32_t>(buf[off + 3]) << 24);
}

} // namespace

std::vector<std::uint8_t>
kvEncodeGet(const std::string &key)
{
    std::vector<std::uint8_t> buf;
    kvAppendGet(key, buf);
    return buf;
}

void
kvAppendGet(std::string_view key, std::vector<std::uint8_t> &buf)
{
    buf.push_back(static_cast<std::uint8_t>(KvOp::Get));
    putU16(buf, static_cast<std::uint16_t>(key.size()));
    buf.insert(buf.end(), key.begin(), key.end());
    putU32(buf, 0);
}

std::vector<std::uint8_t>
kvEncodeSet(const std::string &key, std::span<const std::uint8_t> value)
{
    std::vector<std::uint8_t> buf;
    buf.push_back(static_cast<std::uint8_t>(KvOp::Set));
    putU16(buf, static_cast<std::uint16_t>(key.size()));
    buf.insert(buf.end(), key.begin(), key.end());
    putU32(buf, static_cast<std::uint32_t>(value.size()));
    buf.insert(buf.end(), value.begin(), value.end());
    return buf;
}

std::optional<KvRequest>
kvDecodeRequest(std::span<const std::uint8_t> buf)
{
    if (buf.size() < 7)
        return std::nullopt;
    KvRequest req;
    if (buf[0] > 1)
        return std::nullopt;
    req.op = static_cast<KvOp>(buf[0]);
    std::uint16_t keyLen = getU16(buf, 1);
    if (buf.size() < 3u + keyLen + 4u)
        return std::nullopt;
    req.key.assign(buf.begin() + 3, buf.begin() + 3 + keyLen);
    std::uint32_t valLen = getU32(buf, 3u + keyLen);
    if (buf.size() < 3u + keyLen + 4u + valLen)
        return std::nullopt;
    req.value.assign(buf.begin() + 3 + keyLen + 4,
                     buf.begin() + 3 + keyLen + 4 + valLen);
    return req;
}

std::vector<std::uint8_t>
kvEncodeResponse(KvStatus status, std::span<const std::uint8_t> value)
{
    std::vector<std::uint8_t> buf;
    buf.push_back(static_cast<std::uint8_t>(status));
    putU32(buf, static_cast<std::uint32_t>(value.size()));
    buf.insert(buf.end(), value.begin(), value.end());
    return buf;
}

KvResponse
kvDecodeResponse(std::span<const std::uint8_t> buf)
{
    KvResponse resp;
    if (buf.size() < 5)
        return resp;
    resp.status = static_cast<KvStatus>(buf[0]);
    std::uint32_t n = getU32(buf, 1);
    if (buf.size() < 5u + n) {
        resp.status = KvStatus::Malformed;
        return resp;
    }
    resp.value.assign(buf.begin() + 5, buf.begin() + 5 + n);
    return resp;
}

std::vector<std::uint8_t>
kvApply(KvStore &store, const KvRequest &req)
{
    if (req.op == KvOp::Set) {
        store.set(req.key, req.value);
        return kvEncodeResponse(KvStatus::Ok, {});
    }
    auto v = store.get(req.key);
    if (!v)
        return kvEncodeResponse(KvStatus::Miss, {});
    return kvEncodeResponse(KvStatus::Ok, *v);
}

} // namespace lynx::apps
