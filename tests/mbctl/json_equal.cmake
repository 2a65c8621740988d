# Requires two JSON documents to be equal once the top-level keys listed in
# IGNORE are removed from both:
#
#   cmake -DA=<json> -DB=<json> -DIGNORE=<key>[;<key>...]
#         -P json_equal.cmake
file(READ "${A}" a)
file(READ "${B}" b)
foreach(key IN LISTS IGNORE)
  string(JSON a REMOVE "${a}" ${key})
  string(JSON b REMOVE "${b}" ${key})
endforeach()
string(JSON equal EQUAL "${a}" "${b}")
if(NOT equal)
  message(FATAL_ERROR "${A} and ${B} differ in more than: ${IGNORE}")
endif()
