#include "support/schema.h"

#include <string>

#include "support/check.h"

namespace mb::support {

void begin_document(JsonWriter& w, const Schema& schema) {
  w.begin_object();
  w.field("schema", schema.name);
  w.field("schema_version", schema.version);
}

bool has_schema(const JsonValue& doc, const Schema& schema) {
  return doc.at("schema").as_string() == schema.name &&
         doc.at("schema_version").as_number() == schema.version;
}

void check_document(const JsonValue& doc, const Schema& schema,
                    std::string_view reader) {
  check(doc.is_object(), reader, "document is not an object");
  const JsonValue* name = doc.find("schema");
  const JsonValue* version = doc.find("schema_version");
  check(name != nullptr && name->is_string() && version != nullptr &&
            version->is_number(),
        reader, "missing the schema and schema_version markers");
  if (has_schema(doc, schema)) return;
  fail(reader, "not an " + std::string(schema.name) + " v" +
                   std::to_string(schema.version) + " document (schema '" +
                   name->as_string() + "', schema_version " +
                   json_number(version->as_number()) + ")");
}

}  // namespace mb::support
