#include "storage/cube_io.h"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "storage/compression.h"
#include "storage/crc32c.h"

namespace olap {

namespace {

constexpr char kMagicV1[8] = {'O', 'L', 'A', 'P', 'C', 'U', 'B', '1'};
constexpr char kMagicV2[8] = {'O', 'L', 'A', 'P', 'C', 'U', 'B', '2'};

// Section tags: folded into each section's CRC32C for domain separation
// (a schema section can't be mistaken for a layout section) but never
// written to the file.
constexpr char kTagSchema[4] = {'S', 'C', 'H', 'M'};
constexpr char kTagLayout[4] = {'L', 'A', 'Y', 'T'};
constexpr char kTagChunkDir[4] = {'C', 'D', 'I', 'R'};
constexpr char kTagChunk[4] = {'C', 'H', 'N', 'K'};

// Serializes primitives into an in-memory buffer (native little-endian,
// matching the v1 stream format byte for byte).
class BufWriter {
 public:
  explicit BufWriter(std::string* out) : out_(out) {}

  void Raw(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  void U32(uint32_t v) { Raw(&v, 4); }
  void I32(int32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Bitset(const DynamicBitset& b) {
    U32(static_cast<uint32_t>(b.size()));
    std::vector<int> bits = b.ToVector();
    U32(static_cast<uint32_t>(bits.size()));
    for (int bit : bits) I32(bit);
  }

 private:
  std::string* out_;
};

// Bounds-checked reader over an in-memory byte span. Every accessor fails
// softly (returns zero, sets the fail bit) on overrun — corruption can
// only ever surface as a Status, never as UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return !failed_; }
  void Fail() { failed_ = true; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }

  bool Skip(size_t n) {
    if (n > remaining()) {
      Fail();
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view Bytes(size_t n) {
    if (n > remaining()) {
      Fail();
      return {};
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  uint32_t U32() { return ReadPod<uint32_t>(); }
  int32_t I32() { return ReadPod<int32_t>(); }
  uint64_t U64() { return ReadPod<uint64_t>(); }
  double F64() { return ReadPod<double>(); }

  std::string Str() {
    uint32_t n = U32();
    if (!ok() || n > (1u << 20) || n > remaining()) {
      Fail();
      return "";
    }
    return std::string(Bytes(n));
  }

  Result<DynamicBitset> Bitset() {
    uint32_t size = U32();
    uint32_t count = U32();
    if (!ok() || size > (1u << 24) || count > size ||
        static_cast<size_t>(count) * 4 > remaining()) {
      Fail();
      return Status::DataLoss("corrupt validity set");
    }
    DynamicBitset b(static_cast<int>(size));
    for (uint32_t i = 0; i < count; ++i) {
      int32_t bit = I32();
      if (bit < 0 || bit >= static_cast<int32_t>(size)) {
        Fail();
        return Status::DataLoss("corrupt validity bit");
      }
      b.Set(bit);
    }
    return b;
  }

 private:
  template <typename T>
  T ReadPod() {
    T v{};
    if (sizeof(T) > remaining()) {
      Fail();
      return v;
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

uint32_t SectionCrc(const char tag[4], uint64_t length, std::string_view payload) {
  uint32_t crc = Crc32cExtend(0, tag, 4);
  crc = Crc32cExtend(crc, &length, 8);
  return Crc32cExtend(crc, payload.data(), payload.size());
}

uint32_t ChunkRecordCrc(uint64_t id, uint32_t nbytes, std::string_view payload) {
  uint32_t crc = Crc32cExtend(0, kTagChunk, 4);
  crc = Crc32cExtend(crc, &id, 8);
  crc = Crc32cExtend(crc, &nbytes, 4);
  return Crc32cExtend(crc, payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Serialization (shared between format versions; the payload encodings are
// identical, only the framing differs).

std::string SerializeSchema(const Cube& cube) {
  std::string out;
  BufWriter w(&out);
  const Schema& schema = cube.schema();
  w.U32(static_cast<uint32_t>(schema.num_dimensions()));
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    const Dimension& dim = schema.dimension(d);
    w.Str(dim.name());
    w.U32(static_cast<uint32_t>(dim.kind()));
    w.I32(schema.parameter_of(d));
    // Members (root first; parents always precede children by id).
    w.U32(static_cast<uint32_t>(dim.num_members()));
    for (MemberId m = 0; m < dim.num_members(); ++m) {
      w.Str(dim.member(m).name);
      w.I32(dim.member(m).parent);
      w.F64(dim.member(m).weight);
    }
    // Level names.
    w.U32(static_cast<uint32_t>(dim.level_names().size()));
    for (const std::string& level_name : dim.level_names()) w.Str(level_name);
    // Varying metadata.
    w.U32(dim.is_varying() ? 1 : 0);
    if (dim.is_varying()) {
      w.U32(static_cast<uint32_t>(dim.parameter_leaf_count()));
      w.U32(dim.parameter_is_ordered() ? 1 : 0);
      w.U32(static_cast<uint32_t>(dim.num_instances()));
      for (const MemberInstance& inst : dim.instances()) {
        w.I32(inst.member);
        w.I32(inst.parent);
        w.Bitset(inst.validity);
      }
    }
  }
  return out;
}

std::string SerializeLayout(const Cube& cube) {
  std::string out;
  BufWriter w(&out);
  const ChunkLayout& layout = cube.layout();
  w.U32(static_cast<uint32_t>(layout.num_dims()));
  for (int s : layout.chunk_sizes()) w.I32(s);
  return out;
}

std::string SerializeChunkPayload(const Chunk& chunk, bool compress) {
  std::string out;
  if (compress) {
    std::vector<uint8_t> bytes = CompressChunk(chunk);
    out.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  } else {
    // Bulk bitmap->sentinel expansion (one kernel pass), then one append:
    // the disk format stays the v1 sentinel-double stream byte for byte.
    BufWriter w(&out);
    std::vector<double> sentinel(static_cast<size_t>(chunk.size()));
    chunk.FillSentinel(sentinel.data());
    w.Raw(sentinel.data(), sentinel.size() * sizeof(double));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parsing (shared).

Status ParseSchema(ByteReader& r, Schema* out) {
  uint32_t num_dims = r.U32();
  if (!r.ok() || num_dims == 0 || num_dims > 64) {
    return Status::DataLoss("corrupt dimension count");
  }
  Schema schema;
  std::vector<int> parameter_of(num_dims, -1);
  std::vector<uint32_t> varying_flags(num_dims, 0);

  for (uint32_t d = 0; d < num_dims; ++d) {
    std::string name = r.Str();
    uint32_t kind = r.U32();
    parameter_of[d] = r.I32();
    if (!r.ok() || kind > 2) return Status::DataLoss("corrupt dimension");
    Dimension dim(name, static_cast<DimensionKind>(kind));
    uint32_t num_members = r.U32();
    if (!r.ok() || num_members == 0 || num_members > (1u << 24)) {
      return Status::DataLoss("corrupt member count");
    }
    // Member 0 is the root (created by the constructor); re-add the rest.
    {
      std::string root_name = r.Str();
      int32_t root_parent = r.I32();
      double root_weight = r.F64();
      if (!r.ok() || root_parent != kInvalidMember) {
        return Status::DataLoss("corrupt root member");
      }
      (void)root_name;
      (void)root_weight;
    }
    for (uint32_t m = 1; m < num_members; ++m) {
      std::string member_name = r.Str();
      int32_t parent = r.I32();
      double weight = r.F64();
      if (!r.ok() || parent < 0 || parent >= static_cast<int32_t>(m)) {
        return Status::DataLoss("corrupt member parent");
      }
      Result<MemberId> added = dim.AddMember(member_name, parent, weight);
      if (!added.ok()) return added.status();
    }
    uint32_t num_levels = r.U32();
    if (!r.ok() || num_levels > (1u << 16)) {
      return Status::DataLoss("corrupt level-name count");
    }
    for (uint32_t level = 0; level < num_levels; ++level) {
      std::string level_name = r.Str();
      if (!r.ok()) return Status::DataLoss("corrupt level name");
      if (!level_name.empty()) dim.SetLevelName(static_cast<int>(level), level_name);
    }
    uint32_t is_varying = r.U32();
    varying_flags[d] = is_varying;
    if (is_varying == 1) {
      int param_leaf_count = static_cast<int>(r.U32());
      bool ordered = r.U32() == 1;
      uint32_t num_instances = r.U32();
      // Each instance needs ≥ 16 bytes on disk, which bounds the resize
      // below against corrupt counts.
      if (!r.ok() || num_instances > (1u << 24) ||
          static_cast<size_t>(num_instances) * 16 > r.remaining()) {
        return Status::DataLoss("corrupt instance count");
      }
      std::vector<MemberInstance> instances(num_instances);
      for (uint32_t i = 0; i < num_instances; ++i) {
        instances[i].member = r.I32();
        instances[i].parent = r.I32();
        Result<DynamicBitset> validity = r.Bitset();
        if (!validity.ok()) return validity.status();
        instances[i].validity = *std::move(validity);
      }
      OLAP_RETURN_IF_ERROR(
          dim.RestoreVarying(param_leaf_count, ordered, std::move(instances)));
    } else if (is_varying != 0 || !r.ok()) {
      return Status::DataLoss("corrupt varying flag");
    }
    schema.AddDimension(std::move(dim));
  }
  // Re-wire parameter links (the dimensions are already varying, so only
  // the schema-level mapping needs recording).
  for (uint32_t d = 0; d < num_dims; ++d) {
    if (parameter_of[d] >= 0) {
      if (parameter_of[d] >= static_cast<int>(num_dims) || varying_flags[d] != 1) {
        return Status::DataLoss("corrupt parameter wiring");
      }
      OLAP_RETURN_IF_ERROR(
          schema.RestoreVaryingLink(static_cast<int>(d), parameter_of[d]));
    }
  }
  *out = std::move(schema);
  return Status::Ok();
}

Status ParseLayout(ByteReader& r, int num_dims, CubeOptions* out) {
  uint32_t layout_dims = r.U32();
  if (!r.ok() || layout_dims != static_cast<uint32_t>(num_dims)) {
    return Status::DataLoss("corrupt layout rank");
  }
  out->chunk_sizes.resize(num_dims);
  for (int d = 0; d < num_dims; ++d) {
    out->chunk_sizes[d] = r.I32();
    if (!r.ok() || out->chunk_sizes[d] <= 0) {
      return Status::DataLoss("corrupt chunk size");
    }
  }
  return Status::Ok();
}

Status DecodeChunkPayload(std::string_view payload, bool compressed,
                          int64_t cells_per_chunk, Chunk* chunk) {
  if (compressed) {
    std::vector<uint8_t> bytes(payload.begin(), payload.end());
    Result<Chunk> decoded = DecompressChunk(bytes, cells_per_chunk);
    if (!decoded.ok()) {
      return Status::DataLoss("corrupt compressed chunk: " +
                              decoded.status().message());
    }
    *chunk = *std::move(decoded);
    return Status::Ok();
  }
  if (payload.size() != static_cast<size_t>(cells_per_chunk) * 8) {
    return Status::DataLoss("raw chunk payload has wrong size");
  }
  // One aligned bulk copy out of the (unaligned, type-punned) payload, then
  // one kernel pass splitting sentinel doubles into values + bitmap. Any
  // NaN decodes as ⊥, exactly like the old per-cell FromStorage loop.
  std::vector<double> sentinel(static_cast<size_t>(cells_per_chunk));
  std::memcpy(sentinel.data(), payload.data(), payload.size());
  *chunk = Chunk(cells_per_chunk);
  chunk->AssignRunFromSentinel(0, sentinel.data(), cells_per_chunk);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Writing.

Status AppendSection(WritableFile* file, const char tag[4],
                     const std::string& payload) {
  std::string framed;
  BufWriter w(&framed);
  w.U64(payload.size());
  w.Raw(payload.data(), payload.size());
  w.U32(SectionCrc(tag, payload.size(), payload));
  return file->Append(framed);
}

Status WriteCubeFileV2(const Cube& cube, const SaveOptions& options,
                       WritableFile* file) {
  // Header.
  std::string header(kMagicV2, sizeof(kMagicV2));
  BufWriter hw(&header);
  hw.U32(options.compress ? 1 : 0);
  uint32_t header_crc = Crc32c(header.data(), header.size());
  hw.U32(header_crc);
  OLAP_RETURN_IF_ERROR(file->Append(header));

  OLAP_RETURN_IF_ERROR(AppendSection(file, kTagSchema, SerializeSchema(cube)));
  OLAP_RETURN_IF_ERROR(AppendSection(file, kTagLayout, SerializeLayout(cube)));

  // Chunk directory.
  {
    std::string dir;
    BufWriter w(&dir);
    uint64_t num_chunks = static_cast<uint64_t>(cube.NumStoredChunks());
    w.U64(num_chunks);
    uint32_t crc = Crc32cExtend(0, kTagChunkDir, 4);
    crc = Crc32cExtend(crc, &num_chunks, 8);
    w.U32(crc);
    OLAP_RETURN_IF_ERROR(file->Append(dir));
  }

  // Chunk records. ForEachChunk offers no early exit, so remember the
  // first failure and stop touching the file after it.
  Status chunk_status;
  cube.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!chunk_status.ok()) return;
    std::string payload = SerializeChunkPayload(chunk, options.compress);
    std::string record;
    BufWriter w(&record);
    w.U64(static_cast<uint64_t>(id));
    w.U32(static_cast<uint32_t>(payload.size()));
    w.Raw(payload.data(), payload.size());
    w.U32(ChunkRecordCrc(static_cast<uint64_t>(id),
                         static_cast<uint32_t>(payload.size()), payload));
    chunk_status = file->Append(record);
  });
  return chunk_status;
}

// ---------------------------------------------------------------------------
// Reading.

// Reads one framed section; *payload points into the backing string.
Status ReadSection(ByteReader& r, const char tag[4], const char* what,
                   std::string_view* payload) {
  uint64_t length = r.U64();
  if (!r.ok() || length > r.remaining()) {
    return Status::DataLoss(std::string("truncated ") + what + " section");
  }
  *payload = r.Bytes(static_cast<size_t>(length));
  uint32_t stored_crc = r.U32();
  if (!r.ok()) {
    return Status::DataLoss(std::string("truncated ") + what + " section");
  }
  if (stored_crc != SectionCrc(tag, length, *payload)) {
    return Status::DataLoss(std::string(what) + " section checksum mismatch");
  }
  return Status::Ok();
}

Result<Cube> LoadV2(std::string_view data, const std::string& path,
                    const LoadOptions& options) {
  ByteReader r(data);
  r.Skip(sizeof(kMagicV2));
  uint32_t flags = r.U32();
  uint32_t header_crc = r.U32();
  if (!r.ok() || header_crc != Crc32c(data.data(), sizeof(kMagicV2) + 4)) {
    return Status::DataLoss("'" + path + "': cube header checksum mismatch");
  }
  if (flags > 1) {
    return Status::DataLoss("'" + path + "': unknown cube file flags");
  }
  const bool compressed = flags == 1;

  std::string_view schema_payload;
  OLAP_RETURN_IF_ERROR(ReadSection(r, kTagSchema, "schema", &schema_payload));
  Schema schema;
  {
    ByteReader sr(schema_payload);
    OLAP_RETURN_IF_ERROR(ParseSchema(sr, &schema));
    if (sr.remaining() != 0) {
      return Status::DataLoss("trailing bytes in schema section");
    }
  }
  const int num_dims = schema.num_dimensions();

  std::string_view layout_payload;
  OLAP_RETURN_IF_ERROR(ReadSection(r, kTagLayout, "layout", &layout_payload));
  CubeOptions cube_options;
  {
    ByteReader lr(layout_payload);
    OLAP_RETURN_IF_ERROR(ParseLayout(lr, num_dims, &cube_options));
    if (lr.remaining() != 0) {
      return Status::DataLoss("trailing bytes in layout section");
    }
  }
  Cube cube(std::move(schema), cube_options);
  const int64_t cells_per_chunk = cube.layout().cells_per_chunk();

  // Chunk directory.
  uint64_t num_chunks = r.U64();
  uint32_t dir_crc = r.U32();
  bool directory_trusted = r.ok();
  if (directory_trusted) {
    uint32_t crc = Crc32cExtend(0, kTagChunkDir, 4);
    crc = Crc32cExtend(crc, &num_chunks, 8);
    directory_trusted = dir_crc == crc;
  }
  if (!directory_trusted && !options.recover) {
    return Status::DataLoss("'" + path + "': chunk directory corrupt");
  }
  if (directory_trusted && num_chunks > r.remaining() / 16) {
    if (!options.recover) {
      return Status::DataLoss("'" + path + "': impossible chunk count");
    }
    directory_trusted = false;
  }

  RecoveryReport report;
  report.chunks_total =
      directory_trusted ? static_cast<int64_t>(num_chunks) : 0;
  // With an untrusted directory (recovery mode only), walk records until
  // the data runs out; a record needs at least id + nbytes + crc.
  auto more_records = [&](uint64_t scanned) {
    return directory_trusted ? scanned < num_chunks : r.remaining() >= 16;
  };
  Status first_error;
  for (uint64_t c = 0; more_records(c); ++c) {
    if (!directory_trusted) report.chunks_total = static_cast<int64_t>(c + 1);
    uint64_t id = r.U64();
    uint32_t nbytes = r.U32();
    if (!r.ok() || nbytes > r.remaining()) {
      first_error = Status::DataLoss("'" + path + "': truncated chunk record");
      // Framing is gone; nothing past this point can be located.
      report.chunks_dropped +=
          directory_trusted ? static_cast<int64_t>(num_chunks - c) : 1;
      break;
    }
    std::string_view payload = r.Bytes(nbytes);
    uint32_t stored_crc = r.U32();
    if (!r.ok()) {
      first_error = Status::DataLoss("'" + path + "': truncated chunk record");
      report.chunks_dropped +=
          directory_trusted ? static_cast<int64_t>(num_chunks - c) : 1;
      break;
    }
    Status record_status;
    if (stored_crc != ChunkRecordCrc(id, nbytes, payload)) {
      record_status =
          Status::DataLoss("'" + path + "': chunk " + std::to_string(id) +
                           " checksum mismatch");
    } else if (static_cast<int64_t>(id) >= cube.layout().num_chunks()) {
      record_status = Status::DataLoss("'" + path + "': corrupt chunk id");
    } else {
      Chunk decoded(cells_per_chunk);
      record_status =
          DecodeChunkPayload(payload, compressed, cells_per_chunk, &decoded);
      if (record_status.ok()) {
        *cube.GetOrCreateChunk(static_cast<ChunkId>(id)) = std::move(decoded);
        ++report.chunks_salvaged;
      }
    }
    if (!record_status.ok()) {
      if (!options.recover) return record_status;
      if (first_error.ok()) first_error = record_status;
      ++report.chunks_dropped;
    }
  }
  if (options.report != nullptr) *options.report = report;
  if (!options.recover) {
    if (!first_error.ok()) return first_error;
    if (r.remaining() != 0) {
      return Status::DataLoss("'" + path + "': trailing bytes after chunks");
    }
  }
  return cube;
}

Result<Cube> LoadV1(std::string_view data, const std::string& path,
                    const LoadOptions& options) {
  ByteReader r(data);
  r.Skip(sizeof(kMagicV1));
  uint32_t flags = r.U32();
  if (!r.ok() || flags > 1) {
    return Status::DataLoss("'" + path + "': unknown cube file flags");
  }
  const bool compressed = flags == 1;

  Schema schema;
  OLAP_RETURN_IF_ERROR(ParseSchema(r, &schema));
  const int num_dims = schema.num_dimensions();
  CubeOptions cube_options;
  OLAP_RETURN_IF_ERROR(ParseLayout(r, num_dims, &cube_options));
  Cube cube(std::move(schema), cube_options);
  const int64_t cells_per_chunk = cube.layout().cells_per_chunk();

  uint64_t num_chunks = r.U64();
  if (!r.ok() || num_chunks > r.remaining() / 8) {
    return Status::DataLoss("'" + path + "': corrupt chunk count");
  }
  for (uint64_t c = 0; c < num_chunks; ++c) {
    uint64_t id = r.U64();
    if (!r.ok() || static_cast<int64_t>(id) >= cube.layout().num_chunks()) {
      return Status::DataLoss("'" + path + "': corrupt chunk id");
    }
    Chunk* chunk = cube.GetOrCreateChunk(static_cast<ChunkId>(id));
    if (compressed) {
      uint32_t nbytes = r.U32();
      if (!r.ok() || nbytes > r.remaining()) {
        return Status::DataLoss("'" + path + "': truncated compressed chunk");
      }
      OLAP_RETURN_IF_ERROR(DecodeChunkPayload(r.Bytes(nbytes), /*compressed=*/true,
                                              cells_per_chunk, chunk));
    } else {
      std::string_view payload =
          r.Bytes(static_cast<size_t>(cells_per_chunk) * 8);
      if (!r.ok()) {
        return Status::DataLoss("'" + path + "': truncated chunk data");
      }
      OLAP_RETURN_IF_ERROR(DecodeChunkPayload(payload, /*compressed=*/false,
                                              cells_per_chunk, chunk));
    }
  }
  if (options.report != nullptr) {
    *options.report = RecoveryReport{};
    options.report->chunks_total = static_cast<int64_t>(num_chunks);
    options.report->chunks_salvaged = static_cast<int64_t>(num_chunks);
  }
  return cube;
}

Status SaveCubeImpl(const Cube& cube, const std::string& path,
                    const SaveOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();

  // Durability protocol: write a temp file, fsync, then atomically rename
  // over the destination. A crash at any step leaves the previous file at
  // `path` untouched and complete.
  const std::string tmp = path + ".tmp";
  Result<std::unique_ptr<WritableFile>> file = env->NewWritableFile(tmp);
  if (!file.ok()) return file.status();

  Status written = WriteCubeFileV2(cube, options, file->get());
  if (written.ok() && options.sync) written = (*file)->Sync();
  Status closed = (*file)->Close();
  if (written.ok()) written = closed;
  if (!written.ok()) {
    (void)env->RemoveFile(tmp);  // Best effort; the temp file is garbage.
    return written;
  }
  Status renamed = env->RenameFile(tmp, path);
  if (!renamed.ok()) {
    (void)env->RemoveFile(tmp);
    return renamed;
  }
  return Status::Ok();
}

Result<Cube> LoadCubeImpl(const std::string& path, const LoadOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (options.report != nullptr) *options.report = RecoveryReport{};
  std::string data;
  OLAP_RETURN_IF_ERROR(env->ReadFileToString(path, &data));
  if (data.size() < sizeof(kMagicV2)) {
    return Status::DataLoss("'" + path + "' is too short to hold a cube header");
  }
  if (std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    return LoadV2(data, path, options);
  }
  if (std::memcmp(data.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    return LoadV1(data, path, options);
  }
  return Status::InvalidArgument("'" + path + "' is not an OLAP cube file");
}

}  // namespace

// Save/load wrappers: the implementation above does the work; here each
// call gets a trace span (closed with the error status on failure) and a
// metrics count, so storage activity shows up in query profiles and
// snapshots alongside everything else.
Status SaveCube(const Cube& cube, const std::string& path,
                const SaveOptions& options) {
  TraceSpan span("storage.save");
  static Counter* saves = MetricsRegistry::Global().counter("storage.saves");
  static Counter* failures =
      MetricsRegistry::Global().counter("storage.save_failures");
  saves->Increment();
  Status status = SaveCubeImpl(cube, path, options);
  if (!status.ok()) {
    failures->Increment();
    span.SetError(status);
  }
  return status;
}

Result<Cube> LoadCube(const std::string& path, const LoadOptions& options) {
  TraceSpan span("storage.load");
  static Counter* loads = MetricsRegistry::Global().counter("storage.loads");
  static Counter* failures =
      MetricsRegistry::Global().counter("storage.load_failures");
  loads->Increment();
  Result<Cube> cube = LoadCubeImpl(path, options);
  if (!cube.ok()) {
    failures->Increment();
    span.SetError(cube.status());
  }
  return cube;
}

Result<Cube> LoadCubeWithRetry(const std::string& path,
                               const LoadOptions& options,
                               const RetryPolicy& policy, Clock* clock) {
  TraceSpan span("storage.load_retry");
  static Counter* attempts =
      MetricsRegistry::Global().counter("storage.retry.attempts");
  if (clock == nullptr) clock = Clock::Real();
  Result<Cube> cube = CallWithRetry(policy, clock, [&] {
    attempts->Increment();
    return LoadCube(path, options);
  });
  if (!cube.ok()) span.SetError(cube.status());
  return cube;
}

Result<CubeChunkIndex> IndexCubeChunks(Env* env, const std::string& path) {
  if (env == nullptr) env = Env::Default();
  Result<std::unique_ptr<RandomAccessFile>> opened =
      env->NewRandomAccessFile(path);
  if (!opened.ok()) return opened.status();
  RandomAccessFile* file = opened->get();
  Result<int64_t> size = file->Size();
  if (!size.ok()) return size.status();
  const int64_t file_size = *size;

  auto read_at = [&](int64_t offset, size_t n, std::string* out) -> Status {
    if (offset + static_cast<int64_t>(n) > file_size) {
      return Status::DataLoss("'" + path + "': truncated cube file");
    }
    return file->Read(offset, n, out);
  };

  // Header: magic + flags + crc.
  std::string header;
  OLAP_RETURN_IF_ERROR(read_at(0, sizeof(kMagicV2) + 8, &header));
  if (std::memcmp(header.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::InvalidArgument(
        "'" + path + "': chunk indexing requires the OLAPCUB2 format");
  }
  ByteReader hr(std::string_view(header).substr(sizeof(kMagicV2)));
  uint32_t flags = hr.U32();
  uint32_t header_crc = hr.U32();
  if (header_crc != Crc32c(header.data(), sizeof(kMagicV2) + 4) || flags > 1) {
    return Status::DataLoss("'" + path + "': cube header checksum mismatch");
  }

  CubeChunkIndex index;
  index.compressed = flags == 1;
  int64_t offset = sizeof(kMagicV2) + 8;

  // Schema section: skip the payload, keep only the framing honest.
  {
    std::string len_bytes;
    OLAP_RETURN_IF_ERROR(read_at(offset, 8, &len_bytes));
    uint64_t length;
    std::memcpy(&length, len_bytes.data(), 8);
    if (static_cast<int64_t>(length) < 0 ||
        offset + 12 + static_cast<int64_t>(length) > file_size) {
      return Status::DataLoss("'" + path + "': impossible schema length");
    }
    offset += 8 + static_cast<int64_t>(length) + 4;
  }

  // Layout section: small; read and CRC-verify it fully.
  {
    std::string len_bytes;
    OLAP_RETURN_IF_ERROR(read_at(offset, 8, &len_bytes));
    uint64_t length;
    std::memcpy(&length, len_bytes.data(), 8);
    if (length > (1u << 16) ||
        offset + 12 + static_cast<int64_t>(length) > file_size) {
      return Status::DataLoss("'" + path + "': impossible layout length");
    }
    std::string body;
    OLAP_RETURN_IF_ERROR(read_at(offset + 8, static_cast<size_t>(length) + 4, &body));
    std::string_view payload(body.data(), static_cast<size_t>(length));
    uint32_t stored_crc;
    std::memcpy(&stored_crc, body.data() + length, 4);
    if (stored_crc != SectionCrc(kTagLayout, length, payload)) {
      return Status::DataLoss("'" + path + "': layout section checksum mismatch");
    }
    ByteReader lr(payload);
    uint32_t rank = lr.U32();
    if (!lr.ok() || rank == 0 || rank > 64) {
      return Status::DataLoss("'" + path + "': corrupt layout rank");
    }
    int64_t cells = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      int32_t chunk_size = lr.I32();
      if (!lr.ok() || chunk_size <= 0 || cells > (int64_t{1} << 40) / chunk_size) {
        return Status::DataLoss("'" + path + "': corrupt chunk size");
      }
      cells *= chunk_size;
    }
    index.cells_per_chunk = cells;
    offset += 8 + static_cast<int64_t>(length) + 4;
  }

  // Chunk directory.
  uint64_t num_chunks;
  {
    std::string dir;
    OLAP_RETURN_IF_ERROR(read_at(offset, 12, &dir));
    uint32_t stored_crc;
    std::memcpy(&num_chunks, dir.data(), 8);
    std::memcpy(&stored_crc, dir.data() + 8, 4);
    uint32_t crc = Crc32cExtend(0, kTagChunkDir, 4);
    crc = Crc32cExtend(crc, &num_chunks, 8);
    if (stored_crc != crc) {
      return Status::DataLoss("'" + path + "': chunk directory corrupt");
    }
    offset += 12;
  }

  // Record headers: id + nbytes, payload skipped.
  for (uint64_t c = 0; c < num_chunks; ++c) {
    std::string head;
    OLAP_RETURN_IF_ERROR(read_at(offset, 12, &head));
    uint64_t id;
    uint32_t nbytes;
    std::memcpy(&id, head.data(), 8);
    std::memcpy(&nbytes, head.data() + 8, 4);
    if (offset + 12 + static_cast<int64_t>(nbytes) + 4 > file_size) {
      return Status::DataLoss("'" + path + "': truncated chunk record");
    }
    CubeChunkIndex::Entry entry;
    entry.payload_offset = offset + 12;
    entry.nbytes = nbytes;
    if (!index.entries.emplace(static_cast<ChunkId>(id), entry).second) {
      return Status::DataLoss("'" + path + "': duplicate chunk id " +
                              std::to_string(id));
    }
    offset += 12 + static_cast<int64_t>(nbytes) + 4;
  }
  if (offset != file_size) {
    return Status::DataLoss("'" + path + "': trailing bytes after chunks");
  }
  return index;
}

Result<Chunk> ReadIndexedChunk(RandomAccessFile* file,
                               const CubeChunkIndex& index, ChunkId id) {
  auto it = index.entries.find(id);
  if (it == index.entries.end()) {
    return Status::NotFound("no stored chunk " + std::to_string(id));
  }
  const CubeChunkIndex::Entry& entry = it->second;
  std::string body;
  OLAP_RETURN_IF_ERROR(
      file->Read(entry.payload_offset, static_cast<size_t>(entry.nbytes) + 4, &body));
  std::string_view payload(body.data(), entry.nbytes);
  uint32_t stored_crc;
  std::memcpy(&stored_crc, body.data() + entry.nbytes, 4);
  if (stored_crc !=
      ChunkRecordCrc(static_cast<uint64_t>(id), entry.nbytes, payload)) {
    return Status::DataLoss("chunk " + std::to_string(id) +
                            " checksum mismatch");
  }
  Chunk chunk(index.cells_per_chunk);
  OLAP_RETURN_IF_ERROR(DecodeChunkPayload(payload, index.compressed,
                                          index.cells_per_chunk, &chunk));
  return chunk;
}

Result<std::vector<Chunk>> ReadIndexedChunkRun(RandomAccessFile* file,
                                               const CubeChunkIndex& index,
                                               ChunkId begin, int count) {
  if (count <= 0) return Status::InvalidArgument("empty chunk run");
  // Record framing per chunk: id u64 + nbytes u32 before the payload, CRC
  // u32 after it. Consecutively-stored ids are contiguous on disk unless
  // an id between them is unstored.
  constexpr int64_t kRecordHeaderBytes = 12;
  std::vector<const CubeChunkIndex::Entry*> entries(count);
  bool contiguous = true;
  int64_t next_record_start = -1;
  for (int i = 0; i < count; ++i) {
    auto it = index.entries.find(begin + i);
    if (it == index.entries.end()) {
      return Status::NotFound("no stored chunk " + std::to_string(begin + i));
    }
    entries[i] = &it->second;
    const int64_t record_start = it->second.payload_offset - kRecordHeaderBytes;
    if (next_record_start >= 0 && record_start != next_record_start) {
      contiguous = false;
    }
    next_record_start = it->second.payload_offset +
                        static_cast<int64_t>(it->second.nbytes) + 4;
  }
  std::vector<Chunk> out;
  out.reserve(count);
  if (!contiguous) {
    for (int i = 0; i < count; ++i) {
      Result<Chunk> one = ReadIndexedChunk(file, index, begin + i);
      if (!one.ok()) return one.status();
      out.push_back(*std::move(one));
    }
    return out;
  }
  const int64_t span_begin = entries.front()->payload_offset;
  const int64_t span_end = next_record_start;
  std::string body;
  OLAP_RETURN_IF_ERROR(
      file->Read(span_begin, static_cast<size_t>(span_end - span_begin), &body));
  for (int i = 0; i < count; ++i) {
    const CubeChunkIndex::Entry& entry = *entries[i];
    const size_t at = static_cast<size_t>(entry.payload_offset - span_begin);
    std::string_view payload(body.data() + at, entry.nbytes);
    uint32_t stored_crc;
    std::memcpy(&stored_crc, body.data() + at + entry.nbytes, 4);
    if (stored_crc != ChunkRecordCrc(static_cast<uint64_t>(begin + i),
                                     entry.nbytes, payload)) {
      return Status::DataLoss("chunk " + std::to_string(begin + i) +
                              " checksum mismatch");
    }
    Chunk chunk(index.cells_per_chunk);
    OLAP_RETURN_IF_ERROR(DecodeChunkPayload(payload, index.compressed,
                                            index.cells_per_chunk, &chunk));
    out.push_back(std::move(chunk));
  }
  return out;
}

Result<int64_t> FileSize(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  return env->GetFileSize(path);
}

}  // namespace olap
