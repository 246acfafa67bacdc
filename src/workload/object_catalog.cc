#include "src/workload/object_catalog.h"

#include <algorithm>
#include <utility>

namespace workload {
namespace {

const char* ExtensionFor(int kind) {
  switch (kind) {
    case 0:
      return ".html";
    case 1:
      return ".jpg";
    case 2:
      return ".css";
    case 3:
      return ".js";
    default:
      return ".php";
  }
}

const char* ContentTypeFor(int kind) {
  switch (kind) {
    case 0:
      return "text/html";
    case 1:
      return "image/jpeg";
    case 2:
      return "text/css";
    case 3:
      return "application/javascript";
    default:
      return "text/html";
  }
}

}  // namespace

ObjectCatalog::ObjectCatalog(sim::Rng& rng, CatalogConfig cfg)
    : filler_(std::string(cfg.max_size, 'x')) {
  objects_.reserve(cfg.objects);
  for (std::size_t i = 0; i < cfg.objects; ++i) {
    WebObject o;
    const int kind = static_cast<int>(rng.UniformInt(0, 4));
    o.url = "/obj/" + std::to_string(i) + ExtensionFor(kind);
    o.content_type = ContentTypeFor(kind);
    double size = rng.LogNormalFromMedian(static_cast<double>(cfg.median_size), cfg.sigma);
    o.size = std::clamp(static_cast<std::size_t>(size), cfg.min_size, cfg.max_size);
    by_url_[o.url] = objects_.size();
    objects_.push_back(std::move(o));
  }

  pages_.reserve(cfg.pages);
  for (std::size_t i = 0; i < cfg.pages; ++i) {
    Page page;
    // Each page's HTML doc is one of the catalog objects.
    page.html_url = objects_[static_cast<std::size_t>(
                                 rng.UniformInt(0, static_cast<std::int64_t>(cfg.objects) - 1))]
                        .url;
    const int embedded = static_cast<int>(rng.UniformInt(cfg.min_embedded, cfg.max_embedded));
    for (int e = 0; e < embedded; ++e) {
      page.embedded.push_back(
          objects_[static_cast<std::size_t>(
                       rng.UniformInt(0, static_cast<std::int64_t>(cfg.objects) - 1))]
              .url);
    }
    pages_.push_back(std::move(page));
  }
}

const WebObject* ObjectCatalog::Find(const std::string& url) const {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : &objects_[it->second];
}

ObjectCatalog::Body ObjectCatalog::BodyOf(const WebObject& object) const {
  std::string tag = object.url + "\n";
  tag.resize(std::min(tag.size(), object.size));
  net::Payload filler = filler_.substr(0, object.size - tag.size());
  return Body{std::move(tag), std::move(filler)};
}

std::size_t ObjectCatalog::MedianSize() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(objects_.size());
  for (const WebObject& o : objects_) {
    sizes.push_back(o.size);
  }
  std::nth_element(sizes.begin(), sizes.begin() + static_cast<std::ptrdiff_t>(sizes.size() / 2),
                   sizes.end());
  return sizes[sizes.size() / 2];
}

}  // namespace workload
