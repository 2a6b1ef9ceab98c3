# Checks that `stindex_cli ingest` creates its journal only where no file
# is: a file at DB/live_wal.stpages that is not a journal makes ingest
# exit non-zero with a message naming the path, and stays byte-identical.
# A missing journal is created, and a second ingest recovers it.
#
#   cmake -DCLI=path/to/stindex_cli -DWORK_DIR=dir \
#         -P cli_ingest_journal_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dataset "${WORK_DIR}/objects.csv")
execute_process(COMMAND "${CLI}" generate --family random --n 20 --seed 3
                        --out "${dataset}"
                RESULT_VARIABLE status
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "generate failed (${status}): ${err}")
endif()

set(journal "${WORK_DIR}/live_wal.stpages")
# Not a whole number of pages: the page file refuses it.
set(partial_page "not a journal\n")
# Two whole pages of text: no checkpoint header and no journal page, so
# the live tier refuses it.
string(REPEAT "not a journal, " 273 page_text)
string(APPEND page_text "\n")  # 4096 bytes
string(REPEAT "${page_text}" 2 two_pages)
foreach(case partial_page two_pages)
  file(WRITE "${journal}" "${${case}}")
  file(SHA256 "${journal}" before)
  execute_process(COMMAND "${CLI}" ingest --in "${dataset}" --db "${WORK_DIR}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR "${case}: ingest accepted a file that is not a "
                        "journal\nstdout: ${out}")
  endif()
  string(FIND "${err}" "${journal}: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${case}: stderr does not name ${journal}\n"
                        "stderr: ${err}")
  endif()
  file(SHA256 "${journal}" after)
  if(NOT before STREQUAL after)
    message(FATAL_ERROR "${case}: ingest changed ${journal}\nstdout: ${out}")
  endif()
endforeach()

file(REMOVE "${journal}")
foreach(run created recovered)
  execute_process(COMMAND "${CLI}" ingest --in "${dataset}" --db "${WORK_DIR}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run}: ingest failed (${status}): ${err}")
  endif()
endforeach()
if(NOT out MATCHES "recovered [0-9]+ journal records")
  message(FATAL_ERROR "the second ingest did not recover the journal:\n${out}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
