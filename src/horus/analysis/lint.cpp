#include "horus/analysis/lint.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "horus/layers/registry.hpp"

namespace horus::analysis {
namespace {

/// Yields the layer library for fix suggestions. Called only for an
/// ill-formed stack, so a well-formed one never pays for building it.
using LibraryFn = std::function<std::vector<LintLayer>()>;

std::vector<props::LayerSpec> rows_of(const std::vector<LintLayer>& v) {
  std::vector<props::LayerSpec> out;
  out.reserve(v.size());
  for (const LintLayer& l : v) out.push_back(l.spec);
  return out;
}

std::string join_spec(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ':';
    out += n;
  }
  return out;
}

/// Properties available below stack position `index` (top-to-bottom
/// indexing), given a passing-prefix `after_layer` from check_stack.
props::PropertySet below_state(const std::vector<LintLayer>& stack,
                               const std::vector<props::PropertySet>& after,
                               std::size_t index, props::PropertySet network) {
  std::size_t n_below = stack.size() - 1 - index;
  return n_below == 0 ? network : after[n_below - 1];
}

void check_transport_placement(const std::vector<LintLayer>& stack,
                               LintReport& rep) {
  for (std::size_t i = 0; i < stack.size(); ++i) {
    bool bottom = i + 1 == stack.size();
    if (bottom && !stack[i].is_transport) {
      rep.diagnostics.push_back(
          {Severity::kError, "transport-placement", i, stack[i].name,
           "bottom layer " + stack[i].name +
               " is not a transport adapter; every stack must end in one "
               "(COM or RAWCOM)",
           "append :COM to the spec"});
    } else if (!bottom && stack[i].is_transport) {
      rep.diagnostics.push_back(
          {Severity::kError, "transport-placement", i, stack[i].name,
           "transport adapter " + stack[i].name +
               " appears above the bottom of the stack",
           "move " + stack[i].name + " to the bottom position"});
    }
  }
}

void check_well_formed(const std::vector<LintLayer>& stack,
                       const LibraryFn& library, props::PropertySet network,
                       LintReport& rep) {
  props::StackCheck chk = props::check_stack(rows_of(stack), network);
  if (chk.well_formed) return;

  std::size_t idx = chk.offender.value_or(LintDiagnostic::kWholeStack);
  LintDiagnostic d{Severity::kError, "missing-requirement", idx,
                   idx == LintDiagnostic::kWholeStack ? "" : stack[idx].name,
                   chk.error, ""};

  if (idx != LintDiagnostic::kWholeStack) {
    // Search for the cheapest sequence of (non-transport) layers that,
    // inserted directly below the offender, supplies what it is missing.
    std::vector<props::LayerSpec> lib;
    for (const LintLayer& l : library()) {
      if (!l.is_transport) lib.push_back(l.spec);
    }
    props::PropertySet from =
        below_state(stack, chk.after_layer, idx, network);
    props::StackSearchResult fix = props::find_minimal_stack(
        lib, from, stack[idx].spec.requires_below);
    if (fix.found && !fix.stack.empty()) {
      d.suggestion = "insert \"" + join_spec(fix.stack) + "\" below " +
                     stack[idx].name;
    } else if (!fix.found) {
      d.suggestion = "no registered layer combination can supply " +
                     props::to_string(chk.missing) + " at this position";
    }
  }
  rep.diagnostics.push_back(std::move(d));
}

void check_redundant(const std::vector<LintLayer>& stack,
                     props::PropertySet network, LintReport& rep) {
  props::StackCheck base = props::check_stack(rows_of(stack), network);
  if (!base.well_formed) return;

  for (std::size_t i = 0; i + 1 < stack.size(); ++i) {
    const LintLayer& l = stack[i];
    if (l.spec.provides == 0) continue;  // pure pass-through / diagnostics
    props::PropertySet below =
        below_state(stack, base.after_layer, i, network);
    if (!props::includes(below, l.spec.provides)) continue;

    std::vector<LintLayer> without(stack);
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    props::StackCheck reduced = props::check_stack(rows_of(without), network);
    if (!reduced.well_formed) continue;
    if (!props::includes(reduced.result, base.result)) continue;

    rep.diagnostics.push_back(
        {Severity::kWarning, "redundant-layer", i, l.name,
         "layer " + l.name + " provides " + props::to_string(l.spec.provides) +
             ", all of which the stack below it already guarantees; removing "
             "it keeps the stack well-formed with the same properties",
         "remove " + l.name + " from the spec"});
  }
}

void check_dead_guarantees(const std::vector<LintLayer>& stack,
                           props::PropertySet network, LintReport& rep) {
  props::StackCheck base = props::check_stack(rows_of(stack), network);
  if (!base.well_formed) return;

  // Walk bottom-up tracking, for each property, which LAYER most recently
  // provided it (network-supplied properties are not tracked: their
  // masking is a property of the environment, not a stack smell). When a
  // layer above neither inherits nor re-provides a layer-provided
  // property, that guarantee is dead: the layer below does work nobody
  // above can observe.
  std::vector<std::ptrdiff_t> provider(props::kPropertyCount, -1);
  props::PropertySet cur = network;
  for (std::size_t k = stack.size(); k-- > 0;) {  // k walks bottom-up
    const LintLayer& l = stack[k];
    props::PropertySet kept = cur & l.spec.inherits;
    props::PropertySet dropped = cur & ~kept & ~l.spec.provides;
    for (int b = 0; b < props::kPropertyCount; ++b) {
      props::PropertySet bit = props::PropertySet{1} << b;
      if ((dropped & bit) == 0 || provider[static_cast<std::size_t>(b)] < 0) {
        continue;
      }
      std::size_t src = static_cast<std::size_t>(
          provider[static_cast<std::size_t>(b)]);
      rep.diagnostics.push_back(
          {Severity::kWarning, "dead-guarantee", k, l.name,
           "layer " + stack[src].name + " provides " + props::to_string(bit) +
               " but layer " + l.name +
               " above it neither inherits nor re-provides it; the "
               "guarantee is masked",
           "reorder " + stack[src].name + " above " + l.name +
               ", or drop it if the property is not needed"});
    }
    cur = kept | l.spec.provides;
    for (int b = 0; b < props::kPropertyCount; ++b) {
      props::PropertySet bit = props::PropertySet{1} << b;
      if ((l.spec.provides & bit) != 0) {
        provider[static_cast<std::size_t>(b)] = static_cast<std::ptrdiff_t>(k);
      } else if ((cur & bit) == 0) {
        provider[static_cast<std::size_t>(b)] = -1;
      }
    }
  }
}

void check_pack_placement(const std::vector<LintLayer>& stack,
                          LintReport& rep) {
  // PACK coalesces casts into one message carrying one set of lower
  // headers: one ordering stamp, one sequence number. That is only sound
  // when the ordering layers run BELOW it (they stamp the train once) and a
  // fragmentation layer runs below it (trains near the byte budget must
  // survive the MTU). PACK below an ordering layer would pack
  // already-stamped casts and deliver N messages against one stamp.
  const props::PropertySet ordering = props::make_set(
      {props::Property::kFifoMulticast, props::Property::kCausal,
       props::Property::kTotalOrder, props::Property::kSafe});
  for (std::size_t i = 0; i < stack.size(); ++i) {
    if (stack[i].name != "PACK") continue;
    for (std::size_t j = 0; j < i; ++j) {
      if ((stack[j].spec.provides & ordering) == 0) continue;
      rep.diagnostics.push_back(
          {Severity::kError, "pack-below-ordering", i, stack[i].name,
           "PACK is below ordering layer " + stack[j].name +
               "; packing already-ordered casts delivers a train of "
               "messages against a single ordering stamp",
           "move PACK above " + stack[j].name + " (top of the stack)"});
    }
    bool frag_below = false;
    for (std::size_t j = i + 1; j < stack.size(); ++j) {
      if ((stack[j].spec.provides &
           props::mask(props::Property::kLargeMessages)) != 0) {
        frag_below = true;
        break;
      }
    }
    if (!frag_below) {
      rep.diagnostics.push_back(
          {Severity::kError, "pack-needs-frag", i, stack[i].name,
           "PACK has no fragmentation layer below it; a train near the "
           "byte budget plus lower headers can exceed the MTU",
           "insert FRAG (or NFRAG) below PACK"});
    }
  }
}

}  // namespace

std::size_t LintReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const LintDiagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t LintReport::warnings() const {
  return diagnostics.size() - errors();
}

std::string LintReport::to_string() const {
  std::ostringstream os;
  os << spec << ": ";
  if (diagnostics.empty()) {
    os << "ok\n";
    return os.str();
  }
  os << errors() << " error(s), " << warnings() << " warning(s)\n";
  for (const LintDiagnostic& d : diagnostics) {
    os << "  " << (d.severity == Severity::kError ? "error" : "warning") << '['
       << d.rule << ']';
    if (d.index != LintDiagnostic::kWholeStack) {
      os << " at #" << d.index + 1;
    }
    os << ": " << d.message << '\n';
    if (!d.suggestion.empty()) os << "      fix: " << d.suggestion << '\n';
  }
  return os.str();
}

namespace {

/// Minimal JSON string escaping; spec strings and messages are ASCII, so
/// control characters and the two structural escapes are all we need.
void json_escape_to(std::ostringstream& os, const std::string& s) {
  static const char* hex = "0123456789abcdef";
  for (char c : s) {
    auto u = static_cast<unsigned char>(c);
    if (c == '"') {
      os << "\\\"";
    } else if (c == '\\') {
      os << "\\\\";
    } else if (u < 0x20) {
      os << "\\u00" << hex[u >> 4] << hex[u & 0xf];
    } else {
      os << c;
    }
  }
}

void json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  json_escape_to(os, s);
  os << '"';
}

}  // namespace

std::string LintReport::to_json() const {
  std::ostringstream os;
  os << "{\"spec\":";
  json_string(os, spec);
  os << ",\"ok\":" << (ok() ? "true" : "false") << ",\"errors\":" << errors()
     << ",\"warnings\":" << warnings() << ",\"findings\":[";
  bool first = true;
  for (const LintDiagnostic& d : diagnostics) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":";
    json_string(os, d.rule);
    os << ",\"severity\":\""
       << (d.severity == Severity::kError ? "error" : "warning")
       << "\",\"layer\":";
    json_string(os, d.layer);
    os << ",\"position\":";
    if (d.index == LintDiagnostic::kWholeStack) {
      os << -1;
    } else {
      os << d.index;
    }
    os << ",\"message\":";
    json_string(os, d.message);
    os << ",\"suggestion\":";
    json_string(os, d.suggestion);
    os << '}';
  }
  os << "]}";
  return os.str();
}

namespace {

LintReport lint_resolved(const std::vector<LintLayer>& stack,
                         const LibraryFn& library, props::PropertySet network) {
  LintReport rep;
  std::vector<std::string> names;
  names.reserve(stack.size());
  for (const LintLayer& l : stack) names.push_back(l.name);
  rep.spec = join_spec(names);

  if (stack.empty()) {
    rep.diagnostics.push_back({Severity::kError, "empty-spec",
                               LintDiagnostic::kWholeStack, "",
                               "empty stack spec", ""});
    return rep;
  }

  check_transport_placement(stack, rep);
  check_pack_placement(stack, rep);
  check_well_formed(stack, library, network, rep);
  check_redundant(stack, network, rep);
  check_dead_guarantees(stack, network, rep);
  return rep;
}

/// Every registered layer, instantiated once each to read its spec.
std::vector<LintLayer> registry_library() {
  std::vector<LintLayer> library;
  for (const std::string& n : layers::layer_names()) {
    LayerInfo info = layers::layer_info(n);
    library.push_back({n, info.spec, info.is_transport});
  }
  return library;
}

}  // namespace

LintReport lint_stack(const std::vector<LintLayer>& stack,
                      const std::vector<LintLayer>& library,
                      props::PropertySet network) {
  return lint_resolved(stack, [&library] { return library; }, network);
}

LintReport lint_spec(const std::string& spec, props::PropertySet network) {
  LintReport rep;
  rep.spec = spec;

  std::vector<std::string> names = layers::split_spec(spec);
  if (names.size() == 1 && names[0].empty()) names.clear();

  bool unresolved = names.empty();
  std::vector<LintLayer> stack;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    if (n.empty()) {
      rep.diagnostics.push_back({Severity::kError, "empty-name", i, "",
                                 "empty layer name at position " +
                                     std::to_string(i + 1),
                                 "remove the stray ':'"});
      unresolved = true;
      continue;
    }
    try {
      LayerInfo info = layers::layer_info(n);
      stack.push_back({n, info.spec, info.is_transport});
    } catch (const std::invalid_argument&) {
      LintDiagnostic d{Severity::kError, "unknown-layer", i, n,
                       "unknown layer " + n, ""};
      std::string near = layers::closest_layer_name(n);
      if (!near.empty()) d.suggestion = "did you mean " + near + "?";
      rep.diagnostics.push_back(std::move(d));
      unresolved = true;
    }
  }
  if (names.empty()) {
    rep.diagnostics.push_back({Severity::kError, "empty-spec",
                               LintDiagnostic::kWholeStack, "",
                               "empty stack spec", ""});
  }
  if (unresolved) return rep;  // property checks need every row resolved

  LintReport deep = lint_resolved(stack, registry_library, network);
  deep.spec = spec;
  return deep;
}

LintReport lint_spec(const std::string& spec) {
  return lint_spec(spec,
                   props::make_set({props::Property::kBestEffort}));
}

}  // namespace horus::analysis
